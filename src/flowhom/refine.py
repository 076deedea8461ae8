"""Refinement of observation: replacing an embedded ball by a finer one.

A refinement instance is a poset embedding (bounded, injective, strictly
order-preserving, endpoint-preserving) together with an embedding of the
coarse ball into a host flow: a state map plus one chosen path class per
comparable pair, multiplicative under composition.  The refined flow is the
pushout: the host presentation merged with the fine ball's presentation,
gluing each chosen coarse path to the corresponding fine chain.

:func:`check_invariance` then verifies, state by state and in the graded
tables, that branching and merging homology did not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .branching import MINUS, PLUS, HomologyTable
from .errors import EmbeddingInvalid
from .flows import Flow, FlowPresentation, Word, parallel_relations
from .poset import Poset


@dataclass(frozen=True)
class TMorphism:
    """A refinement pattern: an embedding of bounded posets."""

    source: Poset
    target: Poset
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(sorted(self.mapping)))

    @cached_property
    def _image_of(self) -> dict[str, str]:
        return dict(self.mapping)

    def apply(self, x: str) -> str:
        return self._image_of[x]

    @property
    def image(self) -> frozenset:
        return frozenset(b for _, b in self.mapping)


def validate_t_morphism(f: TMorphism) -> tuple[bool, list[str]]:
    """Check the three conditions; diagnostics name any violated one.

    1. both posets are finite and bounded;
    2. the map is one-to-one and strictly order-preserving;
    3. bottom maps to bottom, top to top.
    """
    problems = []
    src_bounds = f.source.bounds()
    tgt_bounds = f.target.bounds()
    if src_bounds is None or tgt_bounds is None:
        problems.append("condition 1: both posets must be bounded")
    sent = dict(f.mapping)
    if sorted(a for a, _ in f.mapping) != sorted(f.source.elements):
        problems.append("condition 2: map must send each source element once")
        return False, problems
    if any(b not in f.target for b in sent.values()):
        problems.append("condition 2: map must land in the target")
        return False, problems
    if len(set(sent.values())) != len(sent):
        problems.append("condition 2: map must be one-to-one")
    for a, b in f.source.relation():
        if not f.target.lt(sent[a], sent[b]):
            problems.append(f"condition 2: {a}<{b} not preserved")
    if src_bounds and tgt_bounds:
        if sent[src_bounds[0]] != tgt_bounds[0]:
            problems.append("condition 3: bottom is not sent to bottom")
        if sent[src_bounds[1]] != tgt_bounds[1]:
            problems.append("condition 3: top is not sent to top")
    return not problems, problems


@dataclass(frozen=True)
class BallEmbedding:
    """A flow morphism from the ball's flow into a host flow.

    ``path_choice`` picks one host path class for every comparable pair of
    the ball; multiplicativity (choice(a,b) * choice(b,c) = choice(a,c))
    is exactly what makes the assignment a morphism of flows.
    """

    ball: Poset
    host: Flow
    state_map: tuple[tuple[str, str], ...]
    path_choice: tuple[tuple[tuple[str, str], Word], ...]

    def __post_init__(self):
        object.__setattr__(self, "state_map", tuple(sorted(self.state_map)))
        object.__setattr__(
            self,
            "path_choice",
            tuple(sorted(((a, b), tuple(w)) for (a, b), w in self.path_choice)),
        )

    @cached_property
    def _state_of(self) -> dict[str, str]:
        return dict(self.state_map)

    @cached_property
    def _choice(self) -> dict[tuple[str, str], Word]:
        return dict(self.path_choice)

    def state_of(self, p: str) -> str:
        return self._state_of[p]

    def choice(self, a: str, b: str) -> Word:
        return self._choice[(a, b)]

    def diagnostics(self) -> list[str]:
        problems = []
        sent = self._state_of
        if sorted(a for a, _ in self.state_map) != sorted(self.ball.elements):
            return ["state map must send each ball state once"]
        host_states = set(self.host.states)
        if any(s not in host_states for s in sent.values()):
            return ["state map must land in the host states"]
        order = self.host.state_order
        for a, b in self.ball.relation():
            if not order.lt(sent[a], sent[b]):
                problems.append(f"state map does not preserve {a}<{b}")
        if problems:
            return problems
        chosen = self._choice
        if sorted(pair for pair, _ in self.path_choice) != sorted(self.ball.relation()):
            return ["need exactly one path choice per comparable pair"]
        for (a, b), w in chosen.items():
            if w not in self.host.path_set(sent[a], sent[b]):
                problems.append(f"choice for {a}<{b} is not a host class there")
        if problems:
            return problems
        for a, b in self.ball.relation():
            for c in self.ball.above(b):
                left = self.host.compose(chosen[(a, b)], chosen[(b, c)])
                if left != chosen[(a, c)]:
                    problems.append(f"choices are not multiplicative on {a}<{b}<{c}")
        return problems


@dataclass(frozen=True)
class RefinementResult:
    refined: Flow
    state_correspondence: dict[str, str] = field(hash=False)
    ball_image: dict[str, str] = field(hash=False)
    new_states: frozenset[str] = frozenset()


def refine_pushout(
    host: Flow, pattern: TMorphism, embedding: BallEmbedding
) -> RefinementResult:
    """Merge the host presentation with the finer ball's presentation.

    States are pushed out (old ball states reuse their host labels, genuinely
    new ones get fresh labels); the finer ball contributes one generator per
    cover and its parallel-word relations; each chosen coarse path is glued
    to the fine chain between the same endpoints.  The merge is then
    re-elaborated, which also rules out any cycle the gluing might create.
    """
    ok, problems = validate_t_morphism(pattern)
    if not ok:
        raise EmbeddingInvalid("; ".join(problems))
    if embedding.ball != pattern.source:
        raise EmbeddingInvalid("embedding ball differs from the pattern source")
    problems = embedding.diagnostics()
    if problems:
        raise EmbeddingInvalid("; ".join(problems))

    old = {pattern.apply(p): embedding.state_of(p) for p in pattern.source.elements}
    taken = set(host.states)
    label: dict[str, str] = {}
    for q in pattern.target.elements:
        if q in old:
            label[q] = old[q]
        else:
            fresh = q
            while fresh in taken:
                fresh += "'"
            taken.add(fresh)
            label[q] = fresh

    gen_names = set(host.generator_map)
    new_gens = []
    for a, b in pattern.target.covers():
        name = f"{label[a]}>{label[b]}"
        while name in gen_names:
            name += "'"
        gen_names.add(name)
        new_gens.append((name, label[a], label[b]))

    states = tuple(sorted(set(host.states) | {label[q] for q in pattern.target.elements}))
    relations = list(host.presentation.relations)
    fine = Flow(FlowPresentation(states, tuple(new_gens)))
    relations.extend(parallel_relations(fine))
    for a, b in pattern.source.relation():
        fine_word = fine.path_set(label[pattern.apply(a)], label[pattern.apply(b)])[0]
        relations.append((embedding.choice(a, b), fine_word))

    merged = FlowPresentation(
        states,
        host.presentation.generators + tuple(new_gens),
        tuple(relations),
    )
    refined = Flow(merged)
    return RefinementResult(
        refined=refined,
        state_correspondence={s: s for s in host.states},
        ball_image={q: label[q] for q in pattern.target.elements},
        new_states=frozenset(label[q] for q in pattern.target.elements if q not in old),
    )


def surrounded(flow: Flow, inner: set[str], outer: set[str]) -> bool:
    """Every inner state is outer, or sits on a two-leg path whose outer
    endpoints both lie in the outer set."""
    pairs = set(flow.nonempty_pairs())
    for state in inner:
        if state in outer:
            continue
        incoming = any((b, state) in pairs for b in outer)
        outgoing = any((state, b) in pairs for b in outer)
        if not (incoming and outgoing):
            return False
    return True


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the four refinement-invariance checks, with witnesses."""

    checks: tuple[tuple[str, bool, tuple[str, ...]], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, ok, witnesses in self.checks:
            out.append(f"{'ok  ' if ok else 'FAIL'} {name}")
            out.extend(f"     {w}" for w in witnesses)
        return out


def check_invariance(host: Flow, result: RefinementResult) -> InvarianceReport:
    """Verify that a refinement preserved all branching/merging homology.

    1. the refined state set is surrounded by the image of the old one;
    2. per old state and sign, the space homology agrees degreewise;
    3. per new state and sign, the space is nonempty with vanishing
       reduced homology;
    4. the graded tables agree degreewise for both signs.
    """
    refined = result.refined
    old_image = set(result.state_correspondence.values())
    checks = []

    ok1 = surrounded(refined, set(refined.states), old_image)
    checks.append(("surrounded: new states lie on old-to-old paths", ok1, ()))

    tables = {
        (which, sign): HomologyTable(flow, sign)
        for which, flow in (("host", host), ("refined", refined))
        for sign in (MINUS, PLUS)
    }

    witnesses2 = []
    for sign in (MINUS, PLUS):
        per_host = tables[("host", sign)].per_state
        per_ref = tables[("refined", sign)].per_state
        for state, image in sorted(result.state_correspondence.items()):
            if not per_host[state].same_as(per_ref[image]):
                witnesses2.append(f"sign {sign}, state {state}")
    checks.append(("old states keep their space homology", not witnesses2, tuple(witnesses2)))

    witnesses3 = []
    for sign in (MINUS, PLUS):
        per_ref = tables[("refined", sign)].per_state
        for state in sorted(result.new_states):
            if not per_ref[state].is_contractible_like():
                witnesses3.append(f"sign {sign}, state {state}")
    checks.append(("new states have contractible spaces", not witnesses3, tuple(witnesses3)))

    witnesses4 = []
    for sign in (MINUS, PLUS):
        a, b = tables[("host", sign)], tables[("refined", sign)]
        if not a.same_groups(b):
            top = max(a.max_degree, b.max_degree)
            for n in range(top + 1):
                if a.group(n) != b.group(n):
                    witnesses4.append(f"sign {sign}, degree {n}: {a.group(n)} vs {b.group(n)}")
    checks.append(("graded homology tables agree", not witnesses4, tuple(witnesses4)))

    return InvarianceReport(tuple(checks))
