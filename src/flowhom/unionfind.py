"""Union-find and colimits of finite set-valued diagrams.

Every colimit in this library (germ quotients, diagram colimits, latching
objects, cube sources) is computed the same way: take the disjoint union of
all vertex sets, union along every edge map, and read off the classes.
Class representatives are canonical: the smallest member under Python's
default ordering, so results are deterministic and directly comparable.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence


class UnionFind:
    """Disjoint sets over arbitrary hashable keys, with path halving."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def add(self, x) -> None:
        if x not in self._parent:
            self._parent[x] = x

    def find(self, x):
        parent = self._parent
        if x not in parent:
            parent[x] = x
            return x
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # no rank heuristic: the smaller key wins, keeping roots canonical
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        return True

    def classes(self) -> dict:
        """Map each root to the sorted tuple of its members."""
        groups: dict = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return {root: tuple(sorted(members)) for root, members in groups.items()}


class SetColimit:
    """Colimit of a finite diagram of finite sets.

    Elements of the disjoint union are keyed ``(node, element)``; the class
    of any such key, the sorted list of classes and the ``vertex_sets`` the
    colimit was built from are exposed after construction.  Empty diagrams
    give the empty colimit.
    """

    def __init__(
        self,
        vertex_sets: Mapping[Hashable, Sequence],
        edges: Iterable[tuple[Hashable, Hashable, Callable]],
    ) -> None:
        uf = UnionFind()
        for node, elements in vertex_sets.items():
            for x in elements:
                uf.add((node, x))
        for src, dst, fn in edges:
            for x in vertex_sets[src]:
                uf.union((src, x), (dst, fn(x)))
        self._uf = uf
        self.vertex_sets = vertex_sets
        self.classes: tuple = tuple(sorted(uf.classes()))

    def class_of(self, node, element):
        return self._uf.find((node, element))

    def __len__(self) -> int:
        return len(self.classes)


def product_colimit_splits(left_sets, left_edges, right_sets, right_edges) -> bool:
    """Whether the colimit of the product of two set diagrams (given as for
    :class:`SetColimit`) is in bijection with the product of their colimits.

    The product diagram is indexed by pairs of nodes; each edge of one
    factor acts beside every node of the other.
    """
    left = SetColimit(left_sets, left_edges)
    right = SetColimit(right_sets, right_edges)
    prod_sets = {
        (u, v): tuple((x, y) for x in left_sets[u] for y in right_sets[v])
        for u in left_sets for v in right_sets
    }
    prod_edges = [
        ((u, w), (v, w), lambda e, fn=fn: (fn(e[0]), e[1]))
        for (u, v, fn) in left_edges for w in right_sets
    ] + [
        ((w, u), (w, v), lambda e, fn=fn: (e[0], fn(e[1])))
        for (u, v, fn) in right_edges for w in left_sets
    ]
    product = SetColimit(prod_sets, prod_edges)
    pairs = {
        (product.class_of(node, e),
         (left.class_of(node[0], e[0]), right.class_of(node[1], e[1])))
        for node, elements in prod_sets.items()
        for e in elements
    }
    fine = {a for a, _ in pairs}
    coarse = {b for _, b in pairs}
    return len(pairs) == len(fine) == len(coarse) == len(product)
