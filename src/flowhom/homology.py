"""Integer chain complexes, Smith normal form, and nerves of finite
loop-free categories.

All arithmetic is exact (Python integers), since Smith normal form pivots
can outgrow fixed-width types even on small complexes.  Boundary matrices
are stored column-sparse: nerves of modest categories already have
thousands of cells with a handful of nonzero entries each.  Homology groups
are reported as a Betti number plus torsion coefficients in divisibility
order; unit factors are dropped.

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

from dataclasses import dataclass
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

    Unit pivots (the overwhelming majority in boundary matrices) are peeled
    off by fill-aware sparse eliminations; the leftover dense core goes
    through a classical reduction.
    """
    value: dict[tuple[int, int], int] = {}
    row_nz: dict[int, set[int]] = {}
    col_nz: dict[int, set[int]] = {}
    units_present: dict[tuple[int, int], None] = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                value[(i, j)] = int(v)
                row_nz.setdefault(i, set()).add(j)
                col_nz.setdefault(j, set()).add(i)
                if v in (1, -1):
                    units_present[(i, j)] = None
    units = _eliminate_unit_pivots(value, row_nz, col_nz, units_present)
    residual = _dense_invariant_factors(
        [[value.get((i, j), 0) for j in sorted(col_nz)] for i in sorted(row_nz)]
    )
    return [1] * units + residual


_PIVOT_WINDOW = 48  # candidates examined per pivot; trades fill for speed


def _eliminate_unit_pivots(value, row_nz, col_nz, units_present) -> int:
    """Clear out +-1 pivots by unimodular row/column operations.

    Each elimination splits off a unit diagonal entry, so the invariant
    factors of the original matrix are that many 1s followed by those of
    the residual.  Among a bounded window of unit entries, the one with
    the smallest fill estimate wins.
    """

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

    units = 0
    while units_present:
        pivot = None
        best = None
        stale = []
        for key in units_present:
            i, j = key
            cost = (len(row_nz[i]) - 1) * (len(col_nz[j]) - 1)
            if best is None or cost < best:
                best, pivot = cost, key
            if cost == 0 or len(stale) + 1 >= _PIVOT_WINDOW:
                break
            stale.append(key)
        pi, pj = pivot
        pv = value[(pi, pj)]
        for i in list(col_nz[pj]):
            if i == pi:
                continue
            factor = value[(i, pj)] * pv  # v/pv since pv is a unit
            for j in list(row_nz[pi]):
                put(i, j, value.get((i, j), 0) - factor * value[(pi, j)])
        # the pivot column is now clean, so clearing the row causes no fill
        for j in list(row_nz[pi]):
            drop(pi, j)
        if pj in col_nz:
            for i in list(col_nz[pj]):
                drop(i, pj)
        units += 1
    return units


def _dense_invariant_factors(a: list[list[int]]) -> list[int]:
    m = len(a)
    n = len(a[0]) if m else 0
    out: list[int] = []
    t = 0
    while t < m and t < n:
        pivot = _smallest_nonzero(a, t, m, n)
        if pivot is None:
            break
        i0, j0 = pivot
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        _clear_cross(a, t, m, n)
        d = abs(a[t][t])
        bad = _non_multiple(a, t, m, n, d)
        if bad is not None:
            # fold the offending row into row t and re-clear: gcd shrinks
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        out.append(d)
        t += 1
    return out


def _smallest_nonzero(a, t: int, m: int, n: int) -> tuple[int, int] | None:
    best = None
    where = None
    for i in range(t, m):
        for j in range(t, n):
            v = a[i][j]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
    return where


def _clear_cross(a, t: int, m: int, n: int) -> None:
    """Zero out row t and column t beyond the pivot by Euclid steps."""
    if a[t][t] < 0:
        a[t] = [-v for v in a[t]]
    while True:
        i = next((i for i in range(t + 1, m) if a[i][t]), None)
        if i is not None:
            q = a[i][t] // a[t][t]
            for j in range(t, n):
                a[i][j] -= q * a[t][j]
            if a[i][t]:
                a[t], a[i] = a[i], a[t]
            continue
        j = next((j for j in range(t + 1, n) if a[t][j]), None)
        if j is not None:
            q = a[t][j] // a[t][t]
            for i2 in range(t, m):
                a[i2][j] -= q * a[i2][t]
            if a[t][j]:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            continue
        return


def _non_multiple(a, t: int, m: int, n: int, d: int) -> int | None:
    for i in range(t + 1, m):
        for j in range(t + 1, n):
            if a[i][j] % d:
                return i
    return None


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
        for prev, cur in zip(self.torsion, self.torsion[1:]):
            if cur % prev:
                raise ValueError("torsion is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("unit torsion coefficient")

    @property
    def is_zero(self) -> bool:
        return self.betti == 0 and not self.torsion

    def direct_sum(self, *others: "HomologyGroup") -> "HomologyGroup":
        """
        The torsion is renormalized as the invariant factors of the
        diagonal matrix of all input coefficients, with the units dropped.

        >>> print(HomologyGroup(1, (2,)).direct_sum(HomologyGroup(0, (3,))))
        Z (+) Z/6
        """
        groups = (self, *others)
        betti = sum(g.betti for g in groups)
        torsion = [t for g in groups for t in g.torsion]
        factors = invariant_factors_sparse([{i: t} for i, t in enumerate(torsion)])
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

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1


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

    def composable_chains(self, length: int) -> list[tuple]:
        """All chains of ``length`` composable non-identity arrows."""
        if length < 1:
            raise ValueError("chain length must be positive")
        chains = [(f,) for f in sorted(self.arrows)]
        for _ in range(length - 1):
            chains = [
                c + (g,)
                for c in chains
                for g in self._by_source.get(self.arrows[c[-1]][1], ())
            ]
        return chains

    def nerve_cell_count(self, cap: int | None = None) -> int:
        """Total number of nerve cells in all degrees (object chains).

        Computed by dynamic programming over the arrow graph, so it is cheap
        even when the nerve itself would be enormous; with ``cap`` the count
        may stop early once it exceeds the cap.
        """
        paths: dict = {}

        def paths_from(f) -> int:
            cached = paths.get(f)
            if cached is None:
                cached = 1 + sum(
                    paths_from(g) for g in self._by_source.get(self.arrows[f][1], ())
                )
                paths[f] = cached
            return cached

        total = len(self.objects)
        for f in self.arrows:
            total += paths_from(f)
            if cap is not None and total > cap:
                return total
        return total


def nerve(category: LoopFreeCategory) -> ChainComplex:
    """Chain complex of the nerve: degree n spanned by length-n composable
    chains of non-identity arrows (degree 0 by the objects).

    Faces drop an end or compose two adjacent arrows; acyclicity keeps every
    face a chain of non-identity arrows, so no degeneracies appear.
    """
    levels: list[list] = [list(category.objects)]
    n = 1
    while True:
        chains = category.composable_chains(n)
        if not chains:
            break
        levels.append(chains)
        n += 1
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


def poset_category(p: Poset) -> LoopFreeCategory:
    """A poset as a category: one arrow per strictly comparable pair."""
    arrows = {(a, b): (a, b) for a, b in p.relation()}
    compose = {}
    for a, b in p.relation():
        for c in p.above(b):
            compose[((a, b), (b, c))] = (a, c)
    return LoopFreeCategory(p.elements, arrows, compose)
