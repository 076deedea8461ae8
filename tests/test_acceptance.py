"""Acceptance suite: one test per exit criterion, each printing a verdict.

Every criterion is exact (no tolerances: these are integer invariants) and
carries the runtime budget it must meet.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import random
import time

from flowhom.branching import (
    MINUS,
    PLUS,
    BranchDiagram,
    HomologyTable,
    colimit_matches_germ_fiber,
    diagram_colimit,
    germ_space,
)
from flowhom.flows import flow_of_poset
from flowhom.homology import HomologyGroup, homology, nerve
from flowhom.poset import Poset
from flowhom.randgen import (
    random_bounded_poset,
    random_loopless_flow,
    random_refinement_instance,
    random_set_diagram,
    random_set_map,
)
from flowhom.reedy import (
    audit_reedy,
    check_latching_injective,
    flatten_pairs,
    iterated_pushout_product,
    pushout_product,
    reedy_structure,
    same_fibers,
    verify_latching_formula,
)
from flowhom.refine import BallEmbedding, TMorphism, check_invariance, refine_pushout
from flowhom.branching import restricted_subcategory
from flowhom.unionfind import product_colimit_splits

from test_poset import two_routes_poset

Z = HomologyGroup(1)


def report(name: str, started: float, budget: float, detail: str):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded the {budget:.0f}s budget"
    print(f"PASS {name} ({detail}, {elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_two_route_ball():
    """Full directed ball: only degree 0 survives, every space is
    contractible except the empty one at the missing endpoint."""
    started = time.perf_counter()
    flow = flow_of_poset(two_routes_poset())
    for sign, absent in ((MINUS, "top"), (PLUS, "bot")):
        table = HomologyTable(flow, sign)
        assert table.group(0) == Z
        for n in range(1, table.max_degree + 2):
            assert table.group(n).is_zero
        for state in flow.states:
            h = table.per_state[state]
            if state == absent:
                assert h.empty
            else:
                assert h.is_contractible_like()
    report("two-route ball homology", started, 1.0,
           "H_0 = Z both signs, per-state spaces contractible or empty")


def test_criterion_circle_counterexample():
    """The two-level restriction of the two-route diagram has the homology of
    a circle: the full diagram is genuinely needed."""
    started = time.perf_counter()
    diagram = BranchDiagram(flow_of_poset(two_routes_poset()), "bot", MINUS)
    category = restricted_subcategory(diagram)
    assert len(category.objects) == 8
    assert len(category.arrows) == 8
    complex_ = nerve(category)
    assert homology(complex_, 0) == Z
    assert homology(complex_, 1) == Z
    report("circle counterexample", started, 1.0,
           "8 objects, 8 arrows, H_0 = H_1 = Z")


def test_criterion_colimit_equals_germs():
    """Diagram colimits against the germ quotient, in natural bijection,
    at every state of at least 1000 random loopless flows."""
    started = time.perf_counter()
    rng = random.Random(2024)
    flows = 0
    states = 0
    while flows < 1000:
        flow = random_loopless_flow(random.Random(rng.randrange(2**30)), max_states=12)
        flows += 1
        germs = germ_space(flow, MINUS)
        for state in flow.states:
            states += 1
            diagram = BranchDiagram(flow, state, MINUS)
            assert colimit_matches_germ_fiber(diagram, diagram_colimit(diagram), germs)
    report("colimit-vs-germ oracle", started, 60.0,
           f"{flows} flows, {states} states in exact bijection")


def test_criterion_reedy_audit():
    """Degree monotonicity, chain-length superadditivity, and unique
    factorization at every base state of at least 500 bounded posets."""
    started = time.perf_counter()
    rng = random.Random(2025)
    posets = 0
    bases = 0
    while posets < 500:
        p = random_bounded_poset(random.Random(rng.randrange(2**30)), levels=5)
        posets += 1
        for state in p.elements:
            bases += 1
            assert audit_reedy(reedy_structure(p, state)) == []
    report("reedy audit", started, 60.0, f"{posets} posets, {bases} base states")


def test_criterion_latching_formula():
    """The latching map equals the pushout product of the segment maps at
    every simplex of at least 200 one-class-per-pair diagrams; latching
    maps of relation-free (cell) flows are injective."""
    started = time.perf_counter()
    rng = random.Random(2026)
    diagrams = 0
    simplices = 0
    while diagrams < 200:
        p = random_bounded_poset(random.Random(rng.randrange(2**30)), max_inner=4, levels=3)
        flow = flow_of_poset(p)
        for state in p.elements:
            diagram = BranchDiagram(flow, state, MINUS)
            diagrams += 1
            for s in diagram.simplices:
                simplices += 1
                assert verify_latching_formula(diagram, s)
    free_checked = 0
    for _ in range(200):
        flow = random_loopless_flow(
            random.Random(rng.randrange(2**30)),
            max_states=7, relations=False, max_weight=500,
        )
        for state in flow.states:
            free_checked += 1
            assert check_latching_injective(BranchDiagram(flow, state, MINUS))
    report("latching = pushout product", started, 60.0,
           f"{diagrams} diagrams / {simplices} simplices; "
           f"{free_checked} cell-flow diagrams injective")


def test_criterion_cube_calculus():
    """Proper-subset cube colimits equal iterated binary pushout products,
    and product-diagram colimits split, on at least 1000 samples."""
    started = time.perf_counter()
    rng = random.Random(2027)
    samples = 0
    while samples < 1000:
        samples += 1
        maps = [random_set_map(rng) for _ in range(rng.randint(1, 4))]
        cube = pushout_product(maps)
        folded = iterated_pushout_product(maps)
        assert same_fibers(cube, folded, lambda e: flatten_pairs(e, len(maps)))

        sets1, edges1 = random_set_diagram(rng)
        sets2, edges2 = random_set_diagram(rng)
        assert product_colimit_splits(sets1, edges1, sets2, edges2)
    report("cube calculus", started, 30.0, f"{samples} samples, arity <= 4")


def test_criterion_invariance():
    """Refinements preserve everything: the four checks on at least 300
    generated instances, plus the named branch example."""
    started = time.perf_counter()

    fan = flow_of_poset(
        Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
    )
    two = Poset.from_relations(["p0", "p1"], [("p0", "p1")])
    three = Poset.from_relations(
        ["q0", "qm", "q1"], [("q0", "qm"), ("qm", "q1")]
    )
    pattern = TMorphism(two, three, (("p0", "q0"), ("p1", "q1")))
    embedding = BallEmbedding(
        ball=two, host=fan,
        state_map=(("p0", "z"), ("p1", "a")),
        path_choice=((("p0", "p1"), fan.path_set("z", "a")[0]),),
    )
    result = refine_pushout(fan, pattern, embedding)
    assert check_invariance(fan, result).passed
    assert HomologyTable(fan, MINUS).group(1) == Z
    assert HomologyTable(result.refined, MINUS).group(1) == Z

    rng = random.Random(2028)
    instances = 0
    while instances < 300:
        host, pat, emb = random_refinement_instance(random.Random(rng.randrange(2**30)))
        instances += 1
        res = refine_pushout(host, pat, emb)
        rep = check_invariance(host, res)
        assert rep.passed, rep.lines()
    report("refinement invariance", started, 120.0,
           f"branch example H_1 = Z preserved; {instances} random instances, "
           "all four checks exact")


def test_criterion_duality():
    """Merging homology of a flow equals branching homology of its
    opposite, degreewise, on all generated instances."""
    started = time.perf_counter()
    rng = random.Random(2029)
    checked = 0
    for _ in range(150):
        flow = random_loopless_flow(
            random.Random(rng.randrange(2**30)),
            max_states=7, max_height=5, max_weight=600,
        )
        checked += 1
        assert HomologyTable(flow, PLUS).same_groups(
            HomologyTable(flow.opposite(), MINUS)
        )
    for _ in range(100):
        host, pat, emb = random_refinement_instance(random.Random(rng.randrange(2**30)))
        refined = refine_pushout(host, pat, emb).refined
        for flow in (host, refined):
            checked += 1
            assert HomologyTable(flow, PLUS).same_groups(
                HomologyTable(flow.opposite(), MINUS)
            )
    report("plus/minus duality", started, 60.0,
           f"{checked} flows, tables equal degreewise")
