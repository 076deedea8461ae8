"""Branching and merging spaces of a loopless flow.

Three independent routes to the same space live here:

* :func:`germ_space` computes the universal quotient identifying a path
  with its extensions directly, by union-find over path classes;
* :class:`BranchDiagram` plus :func:`diagram_colimit` computes it as the
  colimit of a diagram of path-set products indexed by the order complex
  of the states strictly above (below) the base state;
* :func:`branch_space_homology` computes the homotopy-invariant version:
  the homology of the nerve of the extension category E_a (path classes
  from the base state, one arrow x -> x*y per extension y), which realizes
  the homotopy colimit of the same diagram.  It takes the nerve of the
  core of E_a (:func:`~flowhom.homology.core`), which has the same
  homotopy type and a far smaller nerve.

The first two must agree exactly (this library's central cross-check); the
third feeds the graded homology tables.  The nerve of the whole E_a, and
the nerve of the Grothendieck construction of the diagram
(:func:`grothendieck_category`), its barycentric subdivision, have no
production caller and are kept as the test oracles for the third route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import UnknownSimplex, UnknownState
from .flows import Flow, Word
from .homology import (
    HomologyGroup,
    LoopFreeCategory,
    ZERO_GROUP,
    core,
    homology,
    homology_ranks,
    nerve,
)
from .poset import OrderComplex, Simplex
from .unionfind import SetColimit, UnionFind

MINUS = "minus"  # germs of paths beginning the same way (branching)
PLUS = "plus"  # germs of paths ending the same way (merging)


def _check_sign(sign: str) -> None:
    if sign not in (MINUS, PLUS):
        raise ValueError(f"sign must be {MINUS!r} or {PLUS!r}")


def _working_flow(flow: Flow, state: str, sign: str) -> Flow:
    """The flow to read in the minus direction at a known state: the flow
    itself for minus, its opposite for plus."""
    _check_sign(sign)
    if state not in flow:
        raise UnknownState(repr(state))
    return flow if sign == MINUS else flow.opposite()


# -- germ quotient ---------------------------------------------------------


@dataclass(frozen=True)
class GermSpace:
    """The branching (minus) or merging (plus) space of a flow.

    ``classes`` partitions all path classes into germs; ``anchor`` sends
    each germ to the state where its paths begin (minus) or end (plus).
    The space decomposes as the disjoint union of the anchor fibers, which
    ``fibers`` lists per anchor in the order of ``classes``.
    """

    sign: str
    classes: tuple[tuple[Word, ...], ...]
    anchor: dict[tuple[Word, ...], str]
    fibers: dict[str, tuple[tuple[Word, ...], ...]] = field(repr=False, compare=False)

    def fiber(self, state: str) -> tuple[tuple[Word, ...], ...]:
        return self.fibers.get(state, ())

    def __len__(self) -> int:
        return len(self.classes)


def germ_space(flow: Flow, sign: str) -> GermSpace:
    """Finest partition identifying x with x*y (minus) or y with x*y (plus).

    Computed by union-find over all path classes.  Single generators g
    suffice: every class y is a product g1*...*gk, so x ~ x*g1 ~ ... ~ x*y
    (and dually y ~ gk*y ~ ... ~ x*y).  Anchors are well defined because
    the identifications never move the relevant endpoint.
    """
    _check_sign(sign)
    uf = UnionFind()
    steps: dict[str, list[Word]] = {}
    for g, (src, tgt) in flow.generator_map.items():
        steps.setdefault(src if sign == MINUS else tgt, []).append((g,))
    for x in flow.all_classes():
        uf.add(x)
        if sign == MINUS:
            for g in steps.get(flow.target(x), ()):
                uf.union(x, flow.compose(x, g))
        else:
            for g in steps.get(flow.source(x), ()):
                uf.union(x, flow.compose(g, x))
    groups = uf.classes()
    classes = tuple(sorted(groups.values()))
    anchor = {
        c: (flow.source(c[0]) if sign == MINUS else flow.target(c[0])) for c in classes
    }
    fibers: dict[str, list[tuple[Word, ...]]] = {}
    for c in classes:
        fibers.setdefault(anchor[c], []).append(c)
    return GermSpace(
        sign, classes, anchor, {state: tuple(cs) for state, cs in fibers.items()}
    )


# -- the set-valued diagram over the order complex --------------------------


class BranchDiagram:
    """Path-set products indexed by the order complex at a base state.

    For the minus sign at state a, a simplex (a0, ..., ap) of the complex
    of states strictly above a carries the product
    P(a, a0) x P(a0, a1) x ... x P(a(p-1), ap).  Faces either compose two
    adjacent factors (any face but the last) or drop the final factor (the
    last face).  The plus diagram is the minus diagram of the opposite
    flow, so its index is the order complex of the states strictly below.
    """

    def __init__(self, flow: Flow, state: str, sign: str):
        self.working_flow = _working_flow(flow, state, sign)
        self.flow = flow
        self.state = state
        self.sign = sign
        self.index: OrderComplex = (
            self.working_flow.state_order.strict_upper_set(state).order_complex()
        )

    @property
    def is_empty(self) -> bool:
        return len(self.index) == 0

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        return self.index.simplices

    def segments(self, simplex: Simplex) -> list[tuple[str, str]]:
        chain = (self.state, *simplex)
        return list(zip(chain, chain[1:]))

    def vertex_set(self, simplex: Simplex) -> tuple[tuple[Word, ...], ...]:
        """All tuples (g0, ..., gp) with gi a path class along segment i."""
        if simplex not in self.index:
            raise UnknownSimplex(repr(simplex))
        out: list[tuple[Word, ...]] = [()]
        for a, b in self.segments(simplex):
            out = [t + (g,) for t in out for g in self.working_flow.path_set(a, b)]
        return tuple(out)

    def face(
        self, src: Simplex, dst: Simplex, element: tuple[Word, ...]
    ) -> tuple[Word, ...]:
        """Transport an element along the arrow src -> dst (dst a subchain
        of src).

        Entries past the last vertex of dst are dropped; each remaining gap
        is closed by composing the classes it spans.
        """
        positions = {v: i for i, v in enumerate(src)}
        if any(v not in positions for v in dst):
            raise UnknownSimplex(f"{dst!r} is not a face of {src!r}")
        out: list[Word] = []
        prev = -1
        for v in dst:
            cur = positions[v]
            piece = element[prev + 1]
            for k in range(prev + 2, cur + 1):
                piece = self.working_flow.compose(piece, element[k])
            out.append(piece)
            prev = cur
        return tuple(out)

    def compose_all(self, element: tuple[Word, ...]) -> Word:
        total = element[0]
        for piece in element[1:]:
            total = self.working_flow.compose(total, piece)
        return total


def diagram_colimit(diagram: BranchDiagram) -> SetColimit:
    """Colimit of the set diagram: disjoint union of the vertex sets modulo
    every face identification."""
    return _face_colimit(diagram, diagram.simplices)


def _face_colimit(diagram: BranchDiagram, simplices: Sequence[Simplex]) -> SetColimit:
    """Colimit of the diagram restricted to simplices closed under faces,
    glued along every codimension-one face."""
    vertex_sets = {s: diagram.vertex_set(s) for s in simplices}
    compose = diagram.working_flow.compose
    edges = []
    for s in simplices:
        last = len(s) - 1
        if last:
            for i, f in enumerate(OrderComplex.faces(s)):
                edges.append((s, f, _face_transport(compose, i, last)))
    return SetColimit(vertex_sets, edges)


def _face_transport(compose, i: int, last: int):
    """Transport along the face dropping vertex i of a simplex whose last
    index is ``last``: an inner face composes factors i and i + 1, the last
    face drops the final factor."""
    if i == last:
        return lambda e: e[:last]
    return lambda e: e[:i] + (compose(e[i], e[i + 1]),) + e[i + 2 :]


def colimit_matches_germ_fiber(
    diagram: BranchDiagram, colim: SetColimit, germs: GermSpace
) -> bool:
    """The central oracle: the diagram colimit must be in natural bijection
    with the germ-space fiber at the base state.

    The caller passes ``colim``, the diagram's :func:`diagram_colimit`, and
    ``germs``, the minus germ space of the diagram's working flow:
    ``germ_space(flow, MINUS)`` for a minus diagram of ``flow`` and
    ``germ_space(flow.opposite(), MINUS)`` for a plus one.  One germ space
    serves every state of a flow, so callers compute it once per flow.

    The natural map sends a colimit class of (g0, ..., gp) to the germ of
    g0 * g1 * ... * gp; we check it is well defined, injective and
    surjective on the elements of ``colim.vertex_sets``, the diagram's
    vertex sets as :func:`diagram_colimit` enumerated them.
    """
    fiber = germs.fiber(diagram.state)
    germ_class: dict[Word, tuple[Word, ...]] = {}
    for c in fiber:
        for path in c:
            germ_class[path] = c
    image: dict = {}
    for s, elements in colim.vertex_sets.items():
        for element in elements:
            target = germ_class.get(diagram.compose_all(element))
            if target is None:
                return False
            key = colim.class_of(s, element)
            if image.setdefault(key, target) != target:
                return False  # not well defined on colimit classes
    values = list(image.values())
    injective = len(set(values)) == len(values)
    surjective = set(values) == set(fiber)
    return injective and surjective


# -- the final subcategory on 0- and 1-simplices ----------------------------


def restricted_subcategory(diagram: BranchDiagram) -> LoopFreeCategory:
    """The subcategory on 0- and 1-simplices, with the two faces of each
    1-simplex (compose-into-base and drop-last) as the only arrows."""
    objects = [s for s in diagram.simplices if len(s) <= 2]
    arrows = {}
    for s in objects:
        if len(s) == 2:
            arrows[("d0", s)] = (s, s[1:])
            arrows[("d1", s)] = (s, s[:1])
    return LoopFreeCategory(objects, arrows)


def final_subdiagram_check(diagram: BranchDiagram) -> bool:
    """Check the final-functor criterion for the 0/1-simplex subcategory and
    that restricting the diagram to it leaves the colimit unchanged.

    Finality: for every simplex k of the full index, the comma category of
    arrows from k into the subcategory is non-empty and connected.
    """
    sub_objects = [s for s in diagram.simplices if len(s) <= 2]
    for k in diagram.simplices:
        under = [s for s in sub_objects if set(s) <= set(k)]
        if not under:
            return False
        neighbours: dict[Simplex, set[Simplex]] = {s: set() for s in under}
        for s in under:
            if len(s) == 2:
                for f in (s[1:], s[:1]):
                    neighbours[s].add(f)
                    neighbours[f].add(s)
        seen = {under[0]}
        stack = [under[0]]
        while stack:
            for nxt in neighbours[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(under):
            return False
    full = diagram_colimit(diagram)
    sub = _face_colimit(diagram, sub_objects)
    mapping: dict = {}
    for s in sub_objects:
        for element in diagram.vertex_set(s):
            key = sub.class_of(s, element)
            target = full.class_of(s, element)
            if mapping.setdefault(key, target) != target:
                return False
    return len(mapping) == len(full) == len(sub) and (
        len(set(mapping.values())) == len(mapping)
    )


# -- homotopy branching space via the extension category ---------------------


def extension_category(flow: Flow, state: str, sign: str) -> LoopFreeCategory:
    """The extension category E_a at a state (minus), or of the opposite
    flow (plus).

    Objects are the path classes x starting at the state; each nonempty
    class y starting at target(x) gives one arrow (x, y): x -> x*y, and
    (x, y) followed by (x*y, z) composes to (x, y*z).  Targets strictly
    advance along arrows, so the category is loop-free.  The Grothendieck
    construction of the branch diagram is the category of simplices of
    the nerve of E_a (Thomason 1979), so both nerves have the same
    homology; the nerve of E_a has a single cell per diagram object.
    """
    working = _working_flow(flow, state, sign)
    starting = working.classes_from
    objects = starting(state)
    arrows = {}
    for x in objects:
        for y in starting(working.target(x)):
            arrows[(x, y)] = (x, working.class_of(x + y))
    return LoopFreeCategory(
        objects, arrows, lambda f, g: (f[0], working.class_of(f[1] + g[1]))
    )


def grothendieck_category(diagram: BranchDiagram) -> LoopFreeCategory:
    """Objects are pairs (simplex, element); one arrow per face transport.

    Simplex size strictly drops along arrows, so the category is loop-free,
    and single-face arrows compose into the unique subchain transports.
    Its nerve is the barycentric subdivision of the nerve of
    :func:`extension_category`; this route has no production caller and is
    kept as a test oracle for it.
    """
    objects = []
    for s in diagram.simplices:
        for element in diagram.vertex_set(s):
            objects.append((s, element))
    arrows = {}
    for s, element in objects:
        src = (s, element)
        for t in OrderComplex.proper_subchains(s):
            dst = (t, diagram.face(s, t, element))
            arrows[(src, dst)] = (src, dst)
    return LoopFreeCategory(objects, arrows)


@dataclass(frozen=True)
class SpaceHomology:
    """Homology of one branching/merging space, or the empty-space marker.

    Emptiness is meaningful (it is what the degree-0 table counts), so it is
    carried explicitly rather than encoded as vanishing groups.  ``groups``
    runs from degree 0 up to the top degree of the nerve of the whole
    extension category, zero where its core's nerve has no cells.
    """

    empty: bool
    groups: tuple[HomologyGroup, ...] = ()
    reduced: tuple[HomologyGroup, ...] = ()

    def group(self, n: int) -> HomologyGroup:
        if self.empty:
            raise ValueError("empty space has no homology groups")
        return self.groups[n] if n < len(self.groups) else ZERO_GROUP

    def reduced_group(self, n: int) -> HomologyGroup:
        if self.empty:
            raise ValueError("empty space has no homology groups")
        return self.reduced[n] if n < len(self.reduced) else ZERO_GROUP

    @property
    def max_degree(self) -> int:
        return len(self.groups) - 1

    def is_contractible_like(self) -> bool:
        """Nonempty with vanishing reduced homology in all degrees."""
        return not self.empty and all(g.is_zero for g in self.reduced)

    def same_as(self, other: "SpaceHomology") -> bool:
        if self.empty or other.empty:
            return self.empty == other.empty
        top = max(len(self.groups), len(other.groups))
        return all(self.group(n) == other.group(n) for n in range(top))


EMPTY_SPACE = SpaceHomology(empty=True)


def branch_space_homology(flow: Flow, state: str, sign: str) -> SpaceHomology:
    """Homology of the homotopy branching (merging) space at a state.

    The nerve of the extension category realizes the homotopy colimit of
    the branch diagram up to weak equivalence, so its homology is the
    invariant one.  It is computed on the :func:`~flowhom.homology.core`
    of the category, whose nerve has the same homotopy type and is far
    smaller.  The groups run up to the top degree of the whole nerve, the
    length of its longest chain of arrows: one less than the number of
    states on a longest chain above (minus) or below (plus) the base
    state.  No path class from the state means an empty space.
    """
    category = extension_category(flow, state, sign)
    if not category.objects:
        return EMPTY_SPACE
    order = flow.state_order
    longest = order.longest_chains()
    if sign == MINUS:
        top = max(longest[(state, b)] for b in order.above(state)) - 1
    else:
        top = max(longest[(a, state)] for a in order.below(state)) - 1
    complex_ = nerve(core(category))
    groups = homology_ranks(complex_)
    groups += [ZERO_GROUP] * (top + 1 - len(groups))
    reduced = (homology(complex_, 0, reduced=True), *groups[1:])
    return SpaceHomology(empty=False, groups=tuple(groups), reduced=reduced)


# -- graded homology tables --------------------------------------------------


class HomologyTable:
    """The graded branching (minus) or merging (plus) homology of a flow.

    Degree 0 is free on the states whose space is empty (final states for
    minus, initial for plus); degree 1 collects the reduced degree-0 groups
    of the per-state spaces; degree n + 1 collects their degree-n groups.
    """

    def __init__(self, flow: Flow, sign: str):
        _check_sign(sign)
        self.flow = flow
        self.sign = sign
        self.per_state: dict[str, SpaceHomology] = {
            state: branch_space_homology(flow, state, sign) for state in flow.states
        }
        empty_rank = sum(1 for h in self.per_state.values() if h.empty)
        self._groups: dict[int, HomologyGroup] = {0: HomologyGroup(empty_rank)}
        top = 0
        for h in self.per_state.values():
            if not h.empty:
                top = max(top, h.max_degree + 1)
        for n in range(1, top + 1):
            parts = [
                h.reduced_group(0) if n == 1 else h.group(n - 1)
                for h in self.per_state.values()
                if not h.empty
            ]
            self._groups[n] = ZERO_GROUP.direct_sum(*parts)

    @property
    def max_degree(self) -> int:
        return max(self._groups)

    def group(self, n: int) -> HomologyGroup:
        if n < 0:
            raise ValueError("negative degree")
        return self._groups.get(n, ZERO_GROUP)

    def groups(self) -> list[HomologyGroup]:
        return [self.group(n) for n in range(self.max_degree + 1)]

    def same_groups(self, other: "HomologyTable") -> bool:
        top = max(self.max_degree, other.max_degree)
        return all(self.group(n) == other.group(n) for n in range(top + 1))

    def __repr__(self) -> str:
        parts = ", ".join(f"H{n}={self.group(n)}" for n in range(self.max_degree + 1))
        return f"HomologyTable({self.sign}: {parts})"
