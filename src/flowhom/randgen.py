"""Seeded random instances for the property suites.

Everything here is driven by an explicit ``random.Random`` so that a fixed
seed reproduces the exact same instances, reports, and verdicts.  Sizes are
kept at desk scale: bounded posets up to 8 elements, hosts up to 12 states,
with a word-count guard so congruence closures stay small.
"""

from __future__ import annotations

import random
from typing import Callable

from .flows import Flow, FlowPresentation, flow_of_poset
from .poset import Poset
from .refine import BallEmbedding, TMorphism, refine_pushout
from .reedy import SetMap


def random_bounded_poset(
    rng: random.Random, max_inner: int = 6, levels: int = 4
) -> Poset:
    """A bounded poset: layered inner elements between fresh bounds.

    Covers only go to strictly higher layers, which caps chain lengths at
    ``levels + 1`` and keeps later nerve computations small.
    """
    n = rng.randint(0, max_inner)
    inner = [f"v{i}" for i in range(1, n + 1)]
    level = {v: rng.randint(1, levels) for v in inner}
    covers = []
    for i, a in enumerate(inner):
        for b in inner[i + 1 :]:
            lo, hi = (a, b) if level[a] < level[b] else (b, a)
            if level[lo] < level[hi] and rng.random() < 0.45:
                covers.append((lo, hi))
    linked = {v for pair in covers for v in pair}
    bottomed = {b for _, b in covers}
    topped = {a for a, _ in covers}
    for v in inner:
        if v not in bottomed:
            covers.append(("bot", v))
        if v not in topped:
            covers.append((v, "top"))
    if not inner:
        covers.append(("bot", "top"))
    del linked
    return Poset.from_relations(["bot", "top", *inner], covers)


def diagram_weight(flow: Flow, cap: int = 10**9) -> int:
    """Total object count of all branch diagrams.  Each object is one cell
    of an extension-category nerve, so this is also the total homology cell
    count of either sign.  Stops early once the cap is exceeded."""
    order = flow.state_order
    total = 0
    for state in flow.states:
        upper = order.strict_upper_set(state)
        for chain in upper.chains():
            size = 1
            for a, b in zip((state, *chain), chain):
                size *= len(flow.path_set(a, b))
            total += size
            if total > cap:
                return total
    return total


def random_loopless_flow(
    rng: random.Random,
    max_states: int = 10,
    relations: bool = True,
    max_words: int = 3000,
    max_height: int | None = None,
    max_weight: int | None = 20000,
) -> Flow:
    """A random loopless flow: a forward-edge DAG with occasional parallel
    generators and, optionally, random parallel-word relations.

    ``max_weight`` caps the total branch-diagram object count.  That count
    is the cost of the set-level colimits, and twice it is the total nerve
    cell count of the homology over both signs, so ``max_weight=N // 2``
    admits exactly the flows whose homology complexes total at most N cells.
    """
    while True:
        n = rng.randint(2, max_states)
        states = [f"s{i}" for i in range(n)]
        gens = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < min(0.9, 1.9 / (j - i) / (n ** 0.5)):
                    gens.append((f"g{len(gens)}", states[i], states[j]))
                    if rng.random() < 0.15:
                        gens.append((f"g{len(gens)}", states[i], states[j]))
        if not gens:
            continue
        free = Flow(FlowPresentation(states, tuple(gens)))
        total = sum(len(free.path_set(*p)) for p in free.nonempty_pairs())
        if total > max_words:
            continue
        if relations:
            rels = []
            for pair in free.nonempty_pairs():
                classes = free.path_set(*pair)
                if len(classes) >= 2 and rng.random() < 0.5:
                    picks = rng.sample(range(len(classes)), 2)
                    rels.append((classes[picks[0]], classes[picks[1]]))
            flow = Flow(FlowPresentation(states, tuple(gens), tuple(rels)))
        else:
            flow = free
        if max_height is not None and flow.state_order.height() > max_height:
            continue
        if max_weight is not None and diagram_weight(flow, max_weight) > max_weight:
            continue
        return flow


def random_host_flow(rng: random.Random, max_inner: int = 4) -> tuple[Poset, Flow]:
    """A host built from a bounded poset's flow plus parallel extras.

    The underlying poset's canonical path classes survive in the extended
    flow, which is what makes ball embeddings into it easy to construct.
    """
    shape = random_bounded_poset(rng, max_inner=max_inner, levels=3)
    base = flow_of_poset(shape)
    gens = list(base.presentation.generators)
    for a, b in shape.relation():
        if rng.random() < 0.18:
            gens.append((f"x{len(gens)}", a, b))
    host = Flow(FlowPresentation(base.presentation.states, tuple(gens),
                                 base.presentation.relations))
    return shape, host


# cap on the homology cells of each side of a refinement, both signs
REFINEMENT_MAX_CELLS = 2500


def random_refinement_instance(
    rng: random.Random, max_inner: int = 4
) -> tuple[Flow, TMorphism, BallEmbedding]:
    """A host flow, a poset embedding, and a valid ball embedding.

    The ball is an induced sub-interval of the host's state order, its path
    choices are the canonical classes of the underlying poset flow (always
    multiplicative), and the finer poset inserts fresh midpoints.  Hosts are
    resampled until both sides of the refinement are cheap enough for the
    per-state homology comparison.
    """
    while True:
        shape, host = random_host_flow(rng, max_inner=max_inner)
        if 2 * diagram_weight(host, REFINEMENT_MAX_CELLS // 2) > REFINEMENT_MAX_CELLS:
            continue
        pairs = list(shape.relation())
        a, b = pairs[rng.randrange(len(pairs))]
        between = [x for x in shape.elements if shape.lt(a, x) and shape.lt(x, b)]
        chosen = {a, b} | {x for x in between if rng.random() < 0.6}
        ball = shape.restrict(chosen)

        canonical = flow_of_poset(shape)
        choices = []
        for x, y in ball.relation():
            word = canonical.path_set(x, y)[0]
            choices.append(((x, y), host.class_of(word)))
        embedding = BallEmbedding(
            ball=ball,
            host=host,
            state_map=tuple((x, x) for x in ball.elements),
            path_choice=tuple(choices),
        )

        fine_covers = list(ball.covers())
        fine_elems = list(ball.elements)
        for k in range(rng.randint(1, 2)):
            lo, hi = fine_covers[rng.randrange(len(fine_covers))]
            mid = f"m{k}"
            fine_elems.append(mid)
            fine_covers.append((lo, mid))
            fine_covers.append((mid, hi))
            if rng.random() < 0.5:
                fine_covers.remove((lo, hi))  # subdivide instead of adding a branch
        fine = Poset.from_relations(fine_elems, fine_covers)
        pattern = TMorphism(ball, fine, tuple((x, x) for x in ball.elements))
        result = refine_pushout(host, pattern, embedding)
        cells = 2 * diagram_weight(result.refined, REFINEMENT_MAX_CELLS // 2)
        if cells <= REFINEMENT_MAX_CELLS:
            return host, pattern, embedding


def random_set_map(rng: random.Random, max_size: int = 4) -> SetMap:
    dom = tuple(f"a{i}" for i in range(rng.randint(0, max_size)))
    cod = tuple(f"b{i}" for i in range(rng.randint(1, max_size)))
    return SetMap(dom, cod, {x: rng.choice(cod) for x in dom})


def random_set_diagram(
    rng: random.Random, max_nodes: int = 3, max_size: int = 3
) -> tuple[dict, list]:
    """A small diagram of sets: vertex sets plus function-labelled edges."""
    nodes = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    sets = {v: tuple(f"{v}e{i}" for i in range(rng.randint(0, max_size))) for v in nodes}
    edges: list[tuple[str, str, Callable]] = []
    for src in nodes:
        for dst in nodes:
            if src != dst and sets[dst] and rng.random() < 0.5:
                table = {x: rng.choice(sets[dst]) for x in sets[src]}
                edges.append((src, dst, table.__getitem__))
    return sets, edges
