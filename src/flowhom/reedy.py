"""Degree structure on the index category, latching objects, and the cube
calculus for pushout products of finite set maps.

The index category of a branch diagram (the opposite order complex of the
states above the base) carries a degree function: the sum of squared
longest-chain lengths along consecutive simplex vertices, counting from the
base state.  Faces that keep the last vertex raise this degree, the
drop-last face lowers it, and every arrow factors uniquely as a drop-last
composite followed by a last-preserving composite.  That structure is what
justifies computing homotopy colimits levelwise, and this module makes all
of it checkable on concrete instances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

from .branching import BranchDiagram, MINUS
from .errors import NotAnArrow, UnknownLabel, UnknownSimplex
from .homology import LoopFreeCategory
from .poset import OrderComplex, Poset, Simplex
from .unionfind import SetColimit

Arrow = tuple[Simplex, Simplex]  # (source, target), target a subchain


class ReedyStructure:
    """Degree function and arrow classification for one base state.

    The degree of (a0, ..., ap) is L(base, a0)^2 + L(a0, a1)^2 + ... +
    L(a(p-1), ap)^2 where L is the longest-chain length; squaring is what
    makes inner faces raise the degree strictly.
    """

    def __init__(self, poset: Poset, base: str):
        if base not in poset:
            raise UnknownLabel(repr(base))
        self.poset = poset
        self.base = base
        self.index: OrderComplex = poset.strict_upper_set(base).order_complex()
        longest = poset.longest_chains()
        self._degree: dict[Simplex, int] = {}
        for s in self.index.simplices:
            chain = (base, *s)
            self._degree[s] = sum(longest[pair] ** 2 for pair in zip(chain, chain[1:]))

    def degree(self, simplex: Simplex) -> int:
        if simplex not in self._degree:
            raise UnknownSimplex(repr(simplex))
        return self._degree[simplex]

    def generators(self) -> list[tuple[Simplex, int, str]]:
        """Every face map as (simplex, dropped index, 'plus' or 'minus').

        Dropping any vertex but the last acts by composition and is a plus
        generator; dropping the last vertex is the projection and is minus.
        """
        out = []
        for s in self.index.simplices:
            p = len(s) - 1
            for i in range(p + 1):
                if p >= 1:
                    out.append((s, i, "plus" if i < p else "minus"))
        return out

    def arrows(self) -> list[Arrow]:
        """All non-identity arrows: pairs (src, dst) with dst a proper
        subchain of src."""
        return [
            (src, dst)
            for src in self.index.simplices
            for dst in OrderComplex.proper_subchains(src)
        ]

    def is_minus(self, arrow: Arrow) -> bool:
        src, dst = arrow
        return dst == src[: len(dst)]

    def is_plus(self, arrow: Arrow) -> bool:
        src, dst = arrow
        return bool(dst) and dst[-1] == src[-1] and set(dst) <= set(src)

    def factorize(self, arrow: Arrow) -> tuple[Arrow, Arrow]:
        """Unique (minus, plus) pair composing to the arrow.

        The intermediate object is forced: the prefix of the source ending
        at the target's last vertex.
        """
        src, dst = arrow
        if src not in self._degree or dst not in self._degree:
            raise NotAnArrow(f"{arrow!r} endpoints are not index simplices")
        if not set(dst) <= set(src):
            raise NotAnArrow(f"{dst!r} is not a subchain of {src!r}")
        mid = src[: src.index(dst[-1]) + 1]
        return ((src, mid), (mid, dst))


def reedy_structure(poset: Poset, base: str) -> ReedyStructure:
    return ReedyStructure(poset, base)


def matching_category(structure: ReedyStructure, simplex: Simplex) -> LoopFreeCategory:
    """The tower of proper prefixes under drop-last maps; empty for vertices."""
    if simplex not in structure.index:
        raise UnknownSimplex(repr(simplex))
    prefixes = [simplex[:k] for k in range(len(simplex) - 1, 0, -1)]
    arrows = {(a, b): (a, b) for i, a in enumerate(prefixes) for b in prefixes[i + 1 :]}
    return LoopFreeCategory(prefixes, arrows)


def audit_reedy(structure: ReedyStructure) -> list[str]:
    """Check the degree axioms and unique factorization exhaustively.

    Returns a list of human-readable violations; empty means the structure
    is a genuine Reedy category on this index.
    """
    problems = []
    for s, i, kind in structure.generators():
        face = s[:i] + s[i + 1 :]
        before, after = structure.degree(s), structure.degree(face)
        if kind == "plus" and not after > before:
            problems.append(f"plus face {i} of {s} fails to raise degree")
        if kind == "minus" and not after < before:
            problems.append(f"minus face {i} of {s} fails to lower degree")
    chain_poset = structure.poset
    longest = chain_poset.longest_chains()
    for a, b in chain_poset.relation():
        for c in chain_poset.above(b):
            if longest[(a, b)] + longest[(b, c)] > longest[(a, c)]:
                problems.append(f"chain lengths not superadditive on {a}<{b}<{c}")
    for arrow in structure.arrows():
        minus, plus = structure.factorize(arrow)
        if not structure.is_minus(minus):
            problems.append(f"minus part of {arrow} is not a prefix drop")
        if not structure.is_plus(plus):
            problems.append(f"plus part of {arrow} does not keep the last vertex")
        if minus[0] != arrow[0] or plus[1] != arrow[1] or minus[1] != plus[0]:
            problems.append(f"factorization of {arrow} does not recompose")
        # a candidate middle object must be a prefix of the source, so the
        # nonempty prefixes, shortest first, are every index simplex that
        # can qualify, in index order
        src, dst = arrow
        needed = set(dst)
        candidates = [
            mid
            for mid in (src[:k] for k in range(1, len(src) + 1))
            if mid in structure.index and needed <= set(mid) and mid[-1] == dst[-1]
        ]
        if candidates != [minus[1]]:
            problems.append(f"factorization of {arrow} is not unique")
    return problems


# -- latching objects --------------------------------------------------------


@dataclass
class LatchingObject:
    """Colimit over the simplices properly refining one simplex (matching
    first implicitly at the base, and exactly at the last vertex), with its
    canonical map into the simplex's own vertex set."""

    simplex: Simplex
    colimit: SetColimit
    target: dict  # colimit class -> element of D(simplex)

    def __len__(self) -> int:
        return len(self.colimit)

    @property
    def injective(self) -> bool:
        values = list(self.target.values())
        return len(set(values)) == len(values)

    def fiber_sizes(self) -> Counter:
        return Counter(self.target.values())


def _latching_simplices(diagram: BranchDiagram, simplex: Simplex) -> list[Simplex]:
    last = simplex[-1]
    needed = set(simplex)
    return [
        s
        for s in diagram.simplices
        if s != simplex and s[-1] == last and needed <= set(s)
    ]


def latching_object(diagram: BranchDiagram, simplex: Simplex) -> LatchingObject:
    if simplex not in diagram.index:
        raise UnknownSimplex(repr(simplex))
    members = _latching_simplices(diagram, simplex)
    vertex_sets = {s: diagram.vertex_set(s) for s in members}
    keep = set(members)
    edges = []
    for s in members:
        for i in range(len(s)):
            if s[i] in set(simplex) or i == len(s) - 1:
                continue  # removing it would leave the latching category
            t = s[:i] + s[i + 1 :]
            if t in keep:
                edges.append((s, t, lambda e, s=s, t=t: diagram.face(s, t, e)))
    colim = SetColimit(vertex_sets, edges)
    target = {}
    for s in members:
        for element in vertex_sets[s]:
            target[colim.class_of(s, element)] = diagram.face(s, simplex, element)
    return LatchingObject(simplex, colim, target)


def check_latching_injective(diagram: BranchDiagram) -> bool:
    """Whether every latching map is an injection (the discrete shadow of
    a levelwise-cofibrant diagram).

    This holds whenever the flow is presented without relations; word
    relations can merge distinct routes and break it.
    """
    return all(latching_object(diagram, s).injective for s in diagram.simplices)


# -- pushout products of set maps --------------------------------------------


@dataclass(frozen=True)
class SetMap:
    """A total function between finite sets, with explicit (co)domain."""

    domain: tuple
    codomain: tuple
    mapping: dict

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "codomain", tuple(self.codomain))
        if set(self.mapping) != set(self.domain):
            raise ValueError("mapping is not total on the domain")
        if not set(self.mapping.values()) <= set(self.codomain):
            raise ValueError("mapping leaves the codomain")

    def __call__(self, x):
        return self.mapping[x]

    def fiber_sizes(self) -> Counter:
        return Counter(self.mapping[x] for x in self.domain)


class CubeDiagram:
    """The functor S -> (prod of codomains over S) x (prod of domains off S)
    on subsets of {0, ..., p}, with inclusion-induced edges."""

    def __init__(self, maps: Sequence[SetMap]):
        if not maps:
            raise ValueError("need at least one map")
        self.maps = tuple(maps)

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(range(len(self.maps)))

    def vertex(self, subset: Sequence[int]) -> tuple:
        chosen = set(subset)
        coords = [
            (m.codomain if i in chosen else m.domain) for i, m in enumerate(self.maps)
        ]
        out = [()]
        for coord in coords:
            out = [t + (x,) for t in out for x in coord]
        return tuple(out)

    def edge(self, src: Sequence[int], dst: Sequence[int]) -> Callable:
        src_set, dst_set = set(src), set(dst)
        if not src_set <= dst_set:
            raise ValueError("edges follow subset inclusion")
        applied = dst_set - src_set

        def fn(element: tuple) -> tuple:
            return tuple(
                self.maps[i](x) if i in applied else x for i, x in enumerate(element)
            )

        return fn


def pushout_product(maps: Sequence[SetMap]) -> SetMap:
    """Colimit over the proper subsets of the cube, mapped into the full
    product of codomains.

    For a single map this is the map itself; in general it agrees with the
    left-associated iterated binary pushout product.
    """
    cube = CubeDiagram(maps)
    p = len(maps) - 1
    proper = [(), *OrderComplex.proper_subchains(cube.top)]
    vertex_sets = {s: cube.vertex(s) for s in proper}
    edges = []
    for s in proper:
        for i in range(p + 1):
            if i in s:
                continue
            t = tuple(sorted(s + (i,)))
            if len(t) <= p:
                edges.append((s, t, cube.edge(s, t)))
    colim = SetColimit(vertex_sets, edges)
    into_top: dict = {}
    for s in proper:
        fn = cube.edge(s, cube.top)
        for element in vertex_sets[s]:
            into_top[colim.class_of(s, element)] = fn(element)
    return SetMap(tuple(sorted(into_top)), cube.vertex(cube.top), into_top)


def binary_pushout_product(f: SetMap, g: SetMap) -> SetMap:
    """The classical two-map construction, computed as an explicit pushout.

    Kept separate from :func:`pushout_product` so the two can be compared:
    this one is the oracle route.
    """
    mid = tuple((a, c) for a in f.domain for c in g.domain)
    left = tuple((a, d) for a in f.domain for d in g.codomain)
    right = tuple((b, c) for b in f.codomain for c in g.domain)
    vertex_sets = {"left": left, "mid": mid, "right": right}
    edges = [
        ("mid", "left", lambda e: (e[0], g(e[1]))),
        ("mid", "right", lambda e: (f(e[0]), e[1])),
    ]
    colim = SetColimit(vertex_sets, edges)
    into: dict = {}
    for node, fn in (
        ("left", lambda e: (f(e[0]), e[1])),
        ("mid", lambda e: (f(e[0]), g(e[1]))),
        ("right", lambda e: (e[0], g(e[1]))),
    ):
        for element in vertex_sets[node]:
            into[colim.class_of(node, element)] = fn(element)
    codomain = tuple((b, d) for b in f.codomain for d in g.codomain)
    return SetMap(tuple(sorted(into)), codomain, into)


def iterated_pushout_product(maps: Sequence[SetMap]) -> SetMap:
    """Left-associated fold of the binary construction."""
    return reduce(binary_pushout_product, maps)


def flatten_pairs(element, arity: int) -> tuple:
    """Undo the left-nested pairing of the iterated binary product."""
    if arity == 1:
        return (element,)
    return flatten_pairs(element[0], arity - 1) + (element[1],)


def same_fibers(f: SetMap, g: SetMap, translate: Callable | None = None) -> bool:
    """Whether two maps are isomorphic over a shared codomain: equal fiber
    cardinalities at every point (after translating g's codomain)."""
    left = f.fiber_sizes()
    right = Counter(
        translate(g.mapping[x]) if translate else g.mapping[x] for x in g.domain
    )
    return left == right


# -- the latching formula ------------------------------------------------------


def segment_inclusion(diagram: BranchDiagram, a: str, b: str) -> SetMap:
    """The latching map of the one-vertex simplex (b) in the diagram based
    at a, with bare path classes as codomain."""
    local = BranchDiagram(diagram.working_flow, a, MINUS)
    latch = latching_object(local, (b,))
    mapping = {key: latch.target[key][0] for key in latch.target}
    return SetMap(
        tuple(sorted(mapping)), diagram.working_flow.path_set(a, b), mapping
    )


def verify_latching_formula(diagram: BranchDiagram, simplex: Simplex) -> bool:
    """The latching map of a simplex must agree, fiberwise over its vertex
    set, with the pushout product of the segment latching maps."""
    latch = latching_object(diagram, simplex)
    segments = diagram.segments(simplex)
    product = pushout_product(
        [segment_inclusion(diagram, a, b) for a, b in segments]
    )
    return latch.fiber_sizes() == product.fiber_sizes()
