"""Integer chain complexes, Smith normal form, and nerves of finite
loop-free categories.

All arithmetic is exact (Python integers), since Smith normal form pivots
can outgrow fixed-width types even on small complexes.  Boundary matrices
are stored column-sparse: nerves of modest categories already have
thousands of cells with a handful of nonzero entries each, and their Smith
normal form comes from a single sparse elimination that splits off one
diagonal entry per pivot.  Homology groups are reported as a Betti number
plus torsion coefficients in divisibility order; unit factors are dropped.

>>> hollow_triangle = ChainComplex(
...     [3, 3],
...     [[[-1, -1, 0], [1, 0, -1], [0, 1, 1]]],
... )
>>> print(homology(hollow_triangle, 1))
Z
>>> print(homology(hollow_triangle, 0, reduced=True))
0
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import CyclicCategory, DegreeOutOfRange
from .poset import OrderComplex, Poset

Column = dict[int, int]


# -- Smith normal form -------------------------------------------------------


def invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, in divisibility order.

    The length of the result is the rank of the matrix.

    >>> invariant_factors([[2, 0], [0, 4]])
    [2, 4]
    >>> invariant_factors([[0, 0], [0, 0]])
    []
    """
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    cols: list[Column] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = int(v)
    return invariant_factors_sparse(cols)


def invariant_factors_sparse(cols: Sequence[Column]) -> list[int]:
    """Invariant factors of a column-sparse integer matrix.

    One sparse elimination.  Each round takes a pivot, clears its column
    with row operations and then its row with column operations, which
    leaves only the remainders of division by the pivot.  A pivot whose row
    and column end up clear is split off as a diagonal entry; otherwise a
    remainder, smaller than the pivot, is the next round's pivot.  Unit
    pivots (the overwhelming majority in boundary matrices) leave no
    remainder; among a bounded window of them, the one with the smallest
    fill estimate wins.  Without a unit, an entry of least magnitude is the
    pivot.  The split-off entries form a diagonal matrix with the same
    invariant factors, which :func:`divisibility_chain` puts in order.

    >>> invariant_factors_sparse([{0: 2, 1: 2}, {0: 2, 1: -4}])
    [2, 6]
    """
    value: dict[tuple[int, int], int] = {}
    row_nz: dict[int, set[int]] = {}
    col_nz: dict[int, set[int]] = {}
    units_present: dict[tuple[int, int], None] = {}

    def drop(i, j):
        del value[(i, j)]
        units_present.pop((i, j), None)
        row_nz[i].discard(j)
        col_nz[j].discard(i)
        if not row_nz[i]:
            del row_nz[i]
        if not col_nz[j]:
            del col_nz[j]

    def put(i, j, v):
        if v:
            value[(i, j)] = v
            row_nz.setdefault(i, set()).add(j)
            col_nz.setdefault(j, set()).add(i)
            if v in (1, -1):
                units_present[(i, j)] = None
            else:
                units_present.pop((i, j), None)
        elif (i, j) in value:
            drop(i, j)

    def unit_pivot():
        pivot = None
        best = None
        seen = 0
        for key in units_present:
            i, j = key
            cost = (len(row_nz[i]) - 1) * (len(col_nz[j]) - 1)
            if best is None or cost < best:
                best, pivot = cost, key
            seen += 1
            if cost == 0 or seen >= _PIVOT_WINDOW:
                break
        return pivot

    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                put(i, j, int(v))
    units = 0
    split: list[int] = []
    while value:
        if units_present:
            pi, pj = unit_pivot()
        else:
            pi, pj = min(value, key=lambda key: abs(value[key]))
        pv = value[(pi, pj)]
        for i in list(col_nz[pj]):
            if i != pi:
                q = value[(i, pj)] // pv
                for j in list(row_nz[pi]):
                    put(i, j, value.get((i, j), 0) - q * value[(pi, j)])
        for j in list(row_nz[pi]):
            if j != pj:
                q = value[(pi, j)] // pv
                for i in list(col_nz[pj]):
                    put(i, j, value.get((i, j), 0) - q * value[(i, pj)])
        if len(row_nz[pi]) == len(col_nz[pj]) == 1:
            drop(pi, pj)
            if pv in (1, -1):
                units += 1
            else:
                split.append(pv)
    return [1] * units + divisibility_chain(split)


_PIVOT_WINDOW = 48  # unit candidates examined per pivot; trades fill for speed


def divisibility_chain(entries: Sequence[int]) -> list[int]:
    """Invariant factors of the diagonal matrix of nonzero ``entries``:
    each pair becomes (gcd, lcm) until every entry divides the next.

    >>> divisibility_chain([4, 6, 10])
    [2, 2, 60]
    """
    chain = [abs(e) for e in entries]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return chain


# -- homology groups ----------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: Z^betti plus cyclic torsion.

    Torsion coefficients form an ascending divisibility chain t1 | t2 | ...
    with every entry >= 2.
    """

    betti: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("negative rank")
        if any(t < 2 for t in self.torsion):
            raise ValueError("unit torsion coefficient")
        for prev, cur in zip(self.torsion, self.torsion[1:]):
            if cur % prev:
                raise ValueError("torsion is not a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return self.betti == 0 and not self.torsion

    def direct_sum(self, *others: "HomologyGroup") -> "HomologyGroup":
        """
        The torsion is renormalized by :func:`divisibility_chain` over all
        input coefficients, with the units dropped.

        >>> print(HomologyGroup(1, (2,)).direct_sum(HomologyGroup(0, (3,))))
        Z (+) Z/6
        """
        groups = (self, *others)
        betti = sum(g.betti for g in groups)
        factors = divisibility_chain([t for g in groups for t in g.torsion])
        return HomologyGroup(betti, tuple(t for t in factors if t > 1))

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def compact(self) -> str:
        """Machine form ``b;t1,t2,...``."""
        return f"{self.betti};{','.join(map(str, self.torsion))}"


ZERO_GROUP = HomologyGroup(0, ())


# -- chain complexes ----------------------------------------------------------


class ChainComplex:
    """Non-negatively graded complex of free abelian groups.

    ``dims[n]`` is the rank in degree n.  ``boundaries[n - 1]`` describes
    the map from degree n to degree n - 1, either as dense integer rows or
    as a list of column dictionaries ``{row: coefficient}``.  Adjacent
    composites are checked to vanish at construction.
    """

    def __init__(self, dims: Sequence[int], boundaries: Sequence):
        self.dims = tuple(int(d) for d in dims)
        if len(boundaries) != max(0, len(self.dims) - 1):
            raise ValueError("need exactly one boundary per positive degree")
        self._cols: list[list[Column]] = []
        for n, b in enumerate(boundaries, start=1):
            self._cols.append(self._to_columns(b, self.dims[n - 1], self.dims[n], n))
        for n in range(2, len(self.dims)):
            if not _composite_vanishes(self._cols[n - 2], self._cols[n - 1]):
                raise ValueError(f"boundary composite at degree {n} is nonzero")
        self._invariants: dict[int, list[int]] = {}

    @staticmethod
    def _to_columns(b, nrows: int, ncols: int, degree: int) -> list[Column]:
        if b and isinstance(b[0], dict):
            cols = [dict(c) for c in b]
            if len(cols) != ncols:
                raise ValueError(f"boundary {degree} has the wrong shape")
            for c in cols:
                if any(not 0 <= i < nrows for i in c):
                    raise ValueError(f"boundary {degree} has the wrong shape")
                for i in [i for i, v in c.items() if not v]:
                    del c[i]
            return cols
        rows = list(b)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"boundary {degree} has the wrong shape")
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = int(v)
        return cols

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n < len(self.dims) else 0

    def boundary(self, n: int) -> list[list[int]]:
        """The matrix of the degree-n boundary as dense rows, zero-extended
        outside the graded range."""
        rows = [[0] * self.dim(n) for _ in range(self.dim(n - 1))]
        if 1 <= n < len(self.dims):
            for j, col in enumerate(self._cols[n - 1]):
                for i, v in col.items():
                    rows[i][j] = v
        return rows

    def boundary_columns(self, n: int) -> list[Column]:
        if 1 <= n < len(self.dims):
            return [dict(c) for c in self._cols[n - 1]]
        return [{} for _ in range(self.dim(n))]

    def boundary_invariants(self, n: int) -> list[int]:
        """Invariant factors of the degree-n boundary, cached per degree."""
        if not 1 <= n < len(self.dims):
            return []
        cached = self._invariants.get(n)
        if cached is None:
            cached = self._invariants[n] = invariant_factors_sparse(self._cols[n - 1])
        return list(cached)


def _composite_vanishes(a_cols: list[Column], b_cols: list[Column]) -> bool:
    # a: deg n-1 <- deg n, b: deg n <- deg n+1, both column-sparse
    for col in b_cols:
        acc: Column = {}
        for k, w in col.items():
            for i, v in a_cols[k].items():
                acc[i] = acc.get(i, 0) + v * w
        if any(acc.values()):
            return False
    return True


def homology(complex_: ChainComplex, n: int, reduced: bool = False) -> HomologyGroup:
    """H_n = ker d_n / im d_{n+1} by integer Smith normal form.

    Degrees above the top of the complex are zero (the complex is
    zero-extended); negative degrees are rejected.  With ``reduced`` the
    degree-0 group is computed against the sum-of-coefficients augmentation,
    which must annihilate the degree-1 boundary.
    """
    if n < 0:
        raise DegreeOutOfRange(f"degree {n}")
    cn = complex_.dim(n)
    rank_out = len(complex_.boundary_invariants(n)) if n >= 1 else 0
    inward = complex_.boundary_invariants(n + 1)
    if reduced and n == 0:
        if any(sum(c.values()) for c in complex_.boundary_columns(1)):
            raise ValueError("augmentation does not annihilate the boundary")
        rank_out = 1 if cn else 0
    betti = cn - rank_out - len(inward)
    return HomologyGroup(betti, tuple(t for t in inward if t > 1))


def homology_ranks(complex_: ChainComplex, reduced: bool = False) -> list[HomologyGroup]:
    """All homology groups from degree 0 through the top degree."""
    return [homology(complex_, n, reduced) for n in range(len(complex_.dims))]


# -- simplicial chains of an order complex --------------------------------


def _complex_of_cells(levels: list[Sequence], faces: Callable) -> ChainComplex:
    """Chain complex with basis ``levels[n]`` in degree n; the boundary of
    a cell is the alternating sum of the cells ``faces(cell)`` lists."""
    index = [{c: i for i, c in enumerate(level)} for level in levels]
    boundaries = []
    for n in range(1, len(levels)):
        cols: list[Column] = []
        for cell in levels[n]:
            col: Column = {}
            for i, face in enumerate(faces(cell)):
                row = index[n - 1][face]
                col[row] = col.get(row, 0) + (-1) ** i
            cols.append({r: v for r, v in col.items() if v})
        boundaries.append(cols)
    return ChainComplex([len(level) for level in levels], boundaries)


def complex_of_order_complex(k: OrderComplex) -> ChainComplex:
    """Simplicial chain complex with the ordered-vertex orientation."""
    levels = [k.of_dim(0)]
    while k.of_dim(len(levels)):
        levels.append(k.of_dim(len(levels)))
    return _complex_of_cells(levels, OrderComplex.faces)


# -- finite loop-free categories and their nerves --------------------------


class LoopFreeCategory:
    """A finite category without identities whose arrows never loop back.

    Arrows are named; ``compose`` must be total on composable pairs and
    associative.  Acyclicity (no arrow or composite returning to its source)
    guarantees that the nerve below is finite.
    """

    def __init__(
        self,
        objects: Iterable[Hashable],
        arrows: Mapping[Hashable, tuple[Hashable, Hashable]],
        compose: Mapping[tuple[Hashable, Hashable], Hashable] | None = None,
    ):
        self.objects = tuple(sorted(objects))
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        self.arrows = dict(arrows)
        self.compose = dict(compose or {})
        objs = set(self.objects)
        for f, (s, t) in self.arrows.items():
            if s not in objs or t not in objs:
                raise ValueError(f"arrow {f!r} has an unknown endpoint")
            if s == t:
                raise CyclicCategory(f"arrow {f!r} loops at {s!r}")
        self._by_source: dict = {}
        for f, (s, _) in sorted(self.arrows.items()):
            self._by_source.setdefault(s, []).append(f)
        self._check_acyclic()
        self._check_composition()

    def source(self, f) -> Hashable:
        return self.arrows[f][0]

    def target(self, f) -> Hashable:
        return self.arrows[f][1]

    def _check_acyclic(self) -> None:
        succ: dict = {o: set() for o in self.objects}
        for s, t in self.arrows.values():
            succ[s].add(t)
        state: dict = {}
        for root in self.objects:
            if root in state:
                continue
            stack = [(root, iter(sorted(succ[root])))]
            state[root] = "open"
            while stack:
                node, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    state[node] = "done"
                    stack.pop()
                    continue
                if state.get(nxt) == "open":
                    raise CyclicCategory(f"cycle through object {nxt!r}")
                if nxt not in state:
                    state[nxt] = "open"
                    stack.append((nxt, iter(sorted(succ[nxt]))))

    def _check_composition(self) -> None:
        arrows = self.arrows
        for f, (_, tf) in arrows.items():
            for g in self._by_source.get(tf, ()):
                h = self.compose.get((f, g))
                if h is None:
                    raise ValueError(f"missing composite of {f!r} and {g!r}")
                if arrows[h] != (arrows[f][0], arrows[g][1]):
                    raise ValueError(f"composite {h!r} has wrong endpoints")
        for (f, g), fg in self.compose.items():
            for h in self._by_source.get(arrows[g][1], ()):
                if self.compose[(fg, h)] != self.compose[(f, self.compose[(g, h)])]:
                    raise ValueError("composition is not associative")


def nerve(category: LoopFreeCategory) -> ChainComplex:
    """Chain complex of the nerve: degree n spanned by length-n composable
    chains of non-identity arrows (degree 0 by the objects).

    Faces drop an end or compose two adjacent arrows; acyclicity keeps every
    face a chain of non-identity arrows, so no degeneracies appear.
    """
    levels: list[list] = [list(category.objects)]
    chains = [(f,) for f in sorted(category.arrows)]
    while chains:
        levels.append(chains)
        chains = [
            c + (g,)
            for c in chains
            for g in category._by_source.get(category.arrows[c[-1]][1], ())
        ]
    return _complex_of_cells(levels, lambda chain: _nerve_faces(category, chain))


def _nerve_faces(category: LoopFreeCategory, chain: tuple) -> list:
    if len(chain) == 1:
        f = chain[0]
        return [category.target(f), category.source(f)]
    faces = [chain[1:]]
    for i in range(len(chain) - 1):
        composite = category.compose[(chain[i], chain[i + 1])]
        faces.append(chain[: i] + (composite,) + chain[i + 2 :])
    faces.append(chain[:-1])
    return faces


def core(category: LoopFreeCategory) -> LoopFreeCategory:
    """The full subcategory left once no beat object remains.

    An object x is up-beat when some arrow f0: x -> x' makes g |-> f0;g a
    bijection from the arrows out of x' onto the arrows out of x other than
    f0, that is, f0 is initial among the non-identity arrows out of x;
    down-beat is the dual, with an arrow into x.  Removing a beat object
    keeps the homotopy type of the nerve: every comma category of the
    inclusion has an initial (terminal) object, so Quillen's Theorem A
    applies (Quillen 1973; the strong collapses of Barmak–Minian 2012).
    Each test is made inside the current full subcategory.  The worklist
    starts from the sorted objects and re-queues the neighbours of each
    removed object, whose tests are the only ones a removal can change.

    >>> chain = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> core(poset_category(chain)).objects
    ('c',)
    """
    arrows, compose = category.arrows, category.compose
    # the (arrow, other end) pairs out of and into each object
    outs: dict = {x: [] for x in category.objects}
    ins: dict = {x: [] for x in category.objects}
    for x, fs in category._by_source.items():
        for f in fs:
            outs[x].append((f, arrows[f][1]))
            ins[arrows[f][1]].append((f, x))
    alive = set(category.objects)
    out_deg = {x: len(pairs) for x, pairs in outs.items()}
    in_deg = {x: len(pairs) for x, pairs in ins.items()}

    def beat(x) -> bool:
        # n distinct composites with f0, all among the n other live arrows
        # at x, match those arrows one to one
        n = out_deg[x] - 1
        for f0, y in outs[x]:
            if out_deg[y] == n and y in alive:
                if len({compose[(f0, g)] for g, z in outs[y] if z in alive}) == n:
                    return True
        n = in_deg[x] - 1
        for f0, y in ins[x]:
            if in_deg[y] == n and y in alive:
                if len({compose[(g, f0)] for g, z in ins[y] if z in alive}) == n:
                    return True
        return False

    queue = deque(category.objects)
    queued = set(alive)
    while queue:
        x = queue.popleft()
        queued.discard(x)
        if not beat(x):
            continue
        alive.discard(x)
        for pairs, degree in ((outs[x], in_deg), (ins[x], out_deg)):
            for _, y in pairs:
                if y in alive:
                    degree[y] -= 1
                    if y not in queued:
                        queued.add(y)
                        queue.append(y)
    if len(alive) == len(category.objects):
        return category
    kept = {f: ends for f, ends in arrows.items() if ends[0] in alive and ends[1] in alive}
    kept_compose = {
        (f, g): compose[(f, g)] for f, (_, t) in kept.items() for g, z in outs[t] if z in alive
    }
    return LoopFreeCategory(alive, kept, kept_compose)


def poset_category(p: Poset) -> LoopFreeCategory:
    """A poset as a category: one arrow per strictly comparable pair."""
    arrows = {(a, b): (a, b) for a, b in p.relation()}
    compose = {}
    for a, b in p.relation():
        for c in p.above(b):
            compose[((a, b), (b, c))] = (a, c)
    return LoopFreeCategory(p.elements, arrows, compose)
