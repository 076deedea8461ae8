"""Finite strict posets, interval structure, chain lengths, order complexes.

Elements are opaque string labels.  The strict order is stored transitively
closed; cover relations are recomputed on demand.  All outputs are sorted
lexicographically by label (there is no canonical order on an abstract
poset, so we fix one for determinism).

>>> p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
>>> p.lt("a", "c")
True
>>> p.covers()
(('a', 'b'), ('b', 'c'))
>>> p.max_chain_length("a", "c")
2
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CycleError, NotComparable, UnknownLabel

# a simplex of an order complex: labels strictly increasing in the poset
Simplex = tuple[str, ...]


class Poset:
    """An immutable finite strict partial order on string labels."""

    __slots__ = ("elements", "_lt", "_above", "_below")

    def __init__(self, elements: Sequence[str], lt: Iterable[tuple[str, str]]):
        """Build from an already transitively closed irreflexive relation.

        Use :meth:`from_relations` for arbitrary cover input; this
        constructor only validates, it does not close.
        """
        self.elements: tuple[str, ...] = tuple(sorted(elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate labels")
        self._lt = frozenset(lt)
        known = set(self.elements)
        above: dict[str, set[str]] = {e: set() for e in self.elements}
        below: dict[str, set[str]] = {e: set() for e in self.elements}
        for a, b in self._lt:
            if a not in known or b not in known:
                raise UnknownLabel(f"relation mentions unknown label {a!r} or {b!r}")
            if a == b:
                raise CycleError(f"{a!r} < {a!r}")
            above[a].add(b)
            below[b].add(a)
        for a, b in self._lt:
            for c in above[b]:
                if (a, c) not in self._lt:
                    raise ValueError("relation is not transitively closed")
        for a, b in self._lt:
            if (b, a) in self._lt:
                raise CycleError(f"{a!r} and {b!r} are mutually comparable")
        self._above = {e: tuple(sorted(s)) for e, s in above.items()}
        self._below = {e: tuple(sorted(s)) for e, s in below.items()}

    @classmethod
    def from_relations(
        cls, labels: Sequence[str], covers: Iterable[tuple[str, str]]
    ) -> "Poset":
        """Transitively close a cover list; reject cycles.

        >>> Poset.from_relations(["x", "y"], [("x", "y"), ("y", "x")])
        Traceback (most recent call last):
            ...
        flowhom.errors.CycleError: cycle through 'x'
        """
        labels = tuple(labels)
        known = set(labels)
        if len(known) != len(labels):
            raise ValueError("duplicate labels")
        succ: dict[str, set[str]] = {e: set() for e in labels}
        for a, b in covers:
            if a not in known:
                raise UnknownLabel(repr(a))
            if b not in known:
                raise UnknownLabel(repr(b))
            succ[a].add(b)
        closed: set[tuple[str, str]] = set()
        for start in labels:
            seen: set[str] = set()
            stack = list(succ[start])
            while stack:
                x = stack.pop()
                if x == start:
                    raise CycleError(f"cycle through {start!r}")
                if x in seen:
                    continue
                seen.add(x)
                closed.add((start, x))
                stack.extend(succ[x])
        return cls(labels, closed)

    # -- queries ---------------------------------------------------------

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self._lt

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self._lt

    def __contains__(self, label: str) -> bool:
        return label in self._above

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._lt == other._lt

    def __hash__(self) -> int:
        return hash((self.elements, self._lt))

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)}, covers={list(self.covers())})"

    def relation(self) -> tuple[tuple[str, str], ...]:
        """All strictly comparable pairs, sorted."""
        return tuple(sorted(self._lt))

    def above(self, a: str) -> tuple[str, ...]:
        self._check(a)
        return self._above[a]

    def below(self, a: str) -> tuple[str, ...]:
        self._check(a)
        return self._below[a]

    def covers(self) -> tuple[tuple[str, str], ...]:
        """The transitive reduction, sorted."""
        out = []
        for a, b in self._lt:
            if not any((a, m) in self._lt and (m, b) in self._lt for m in self.elements):
                out.append((a, b))
        return tuple(sorted(out))

    def is_bounded(self) -> bool:
        return self.bounds() is not None

    def bounds(self) -> tuple[str, str] | None:
        """The unique (bottom, top) pair, or None.

        Bounded requires a minimum below everything and a maximum above
        everything, and they must differ (one-point posets do not count).
        """
        minimal = [e for e in self.elements if not self._below[e]]
        maximal = [e for e in self.elements if not self._above[e]]
        if len(minimal) != 1 or len(maximal) != 1:
            return None
        bottom, top = minimal[0], maximal[0]
        if bottom == top or not self.lt(bottom, top):
            return None
        # with unique extremes and b < t, every element sits in [b, t]
        return bottom, top

    def max_chain_length(self, a: str, b: str) -> int:
        """Number of steps in the longest chain a = x0 < x1 < ... < xp = b.

        Satisfies 1 <= result <= card of the half-open interval ]a, b].
        """
        self._check(a)
        self._check(b)
        if not self.lt(a, b):
            raise NotComparable(f"{a!r} is not strictly below {b!r}")
        # longest path in the comparability DAG restricted to [a, b]
        interval = [x for x in self.elements if self.lt(a, x) and self.lt(x, b)]
        order = self._toposort(interval)
        best = {a: 0}
        for x in order:
            best[x] = 1 + max(best[y] for y in (a, *interval) if self.lt(y, x) and y in best)
        return 1 + max(
            (best[y] for y in (a, *interval) if y in best and self.lt(y, b)), default=0
        )

    def _toposort(self, subset: Sequence[str]) -> list[str]:
        sub = set(subset)
        return sorted(sub, key=lambda x: sum(1 for y in sub if self.lt(y, x)))

    def strict_upper_set(self, a: str) -> "Poset":
        self._check(a)
        return self.restrict(self._above[a])

    def strict_lower_set(self, a: str) -> "Poset":
        self._check(a)
        return self.restrict(self._below[a])

    def restrict(self, subset: Iterable[str]) -> "Poset":
        """Induced poset on a subset of the elements."""
        keep = set(subset)
        for x in keep:
            self._check(x)
        return Poset(sorted(keep), {(a, b) for a, b in self._lt if a in keep and b in keep})

    def opposite(self) -> "Poset":
        return Poset(self.elements, {(b, a) for a, b in self._lt})

    def height(self) -> int:
        """Number of elements in a longest chain (0 for the empty poset)."""
        best = {e: 1 for e in self.elements}
        for x in self._toposort(self.elements):
            below = [best[y] for y in self._below[x]]
            best[x] = 1 + max(below, default=0)
        return max(best.values(), default=0)

    def chains(self) -> list[Simplex]:
        """All nonempty chains, each sorted ascending in the order."""
        out: list[Simplex] = []

        def extend(chain: tuple[str, ...], candidates: tuple[str, ...]) -> None:
            out.append(chain)
            for nxt in candidates:
                extend(chain + (nxt,), self._above[nxt])

        for start in self.elements:
            extend((start,), self._above[start])
        return sorted(out, key=lambda c: (len(c), c))

    def order_complex(self) -> "OrderComplex":
        return OrderComplex(self)

    def _check(self, a: str) -> None:
        if a not in self._above:
            raise UnknownLabel(repr(a))


class OrderComplex:
    """The simplicial complex of all chains of a finite poset.

    Simplices are tuples of labels strictly increasing in the base order;
    the complex is closed under nonempty subtuples.
    """

    __slots__ = ("base", "simplices", "_by_dim", "_present")

    def __init__(self, base: Poset):
        self.base = base
        self.simplices: tuple[Simplex, ...] = tuple(base.chains())
        self._present = frozenset(self.simplices)
        by_dim: dict[int, list[Simplex]] = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(sorted(v)) for d, v in by_dim.items()}

    @property
    def dimension(self) -> int:
        return max(self._by_dim, default=-1)

    def of_dim(self, d: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(d, ())

    def __contains__(self, simplex: Simplex) -> bool:
        return tuple(simplex) in self._present

    def __len__(self) -> int:
        return len(self.simplices)

    @staticmethod
    def faces(simplex: Simplex) -> list[Simplex]:
        """Codimension-one faces, in face-index order."""
        return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]

    @staticmethod
    def proper_subchains(simplex: Simplex) -> list[Simplex]:
        """Nonempty proper subtuples, in bitmask order."""
        n = len(simplex)
        return [
            tuple(simplex[i] for i in range(n) if mask >> i & 1)
            for mask in range(1, (1 << n) - 1)
        ]
