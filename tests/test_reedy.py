"""Degree structure, factorization, latching objects, cube calculus.

The latching sizes for the two-route diagram are frozen from the independent
oracle below: explicit element graphs whose transports are recomputed from
scratch with the flow's composition (no reuse of the diagram's face code),
then counted by plain breadth-first search.
"""

import random

import pytest

from flowhom.branching import MINUS, BranchDiagram
from flowhom.errors import NotAnArrow, UnknownSimplex
from flowhom.flows import Flow, FlowPresentation, flow_of_poset, glob
from flowhom.poset import Poset
from flowhom.randgen import (
    random_bounded_poset,
    random_loopless_flow,
    random_set_diagram,
    random_set_map,
)
from flowhom.reedy import (
    CubeDiagram,
    SetMap,
    audit_reedy,
    binary_pushout_product,
    check_latching_injective,
    flatten_pairs,
    iterated_pushout_product,
    latching_object,
    matching_category,
    pushout_product,
    reedy_structure,
    same_fibers,
    verify_latching_formula,
)
from flowhom.unionfind import SetColimit

from test_poset import two_routes_poset


def routes_structure():
    return reedy_structure(two_routes_poset(), "bot")


def routes_diagram():
    return BranchDiagram(flow_of_poset(two_routes_poset()), "bot", MINUS)


def oracle_latching(diagram, simplex):
    """Independent latching computation: build the element graph by hand.

    Members are (refining simplex, tuple of classes); edges glue an element
    to its one-vertex coarsenings inside the family; transports compose
    factors directly with the flow's composition law.
    """
    flow = diagram.working_flow
    members = []
    for s in diagram.simplices:
        if s != simplex and s[-1] == simplex[-1] and set(simplex) <= set(s):
            for e in diagram.vertex_set(s):
                members.append((s, e))

    def transport(s, e, t):
        chain = (diagram.state, *s)
        pieces = []
        prev = diagram.state
        for v in t:
            start = chain.index(prev)
            stop = chain.index(v)
            word = e[start]
            for k in range(start + 1, stop):
                word = flow.compose(word, e[k])
            pieces.append(word)
            prev = v
        return tuple(pieces)

    adjacency = {m: set() for m in members}
    for s, e in members:
        for i, v in enumerate(s):
            if v in set(simplex) or i == len(s) - 1:
                continue
            t = s[:i] + s[i + 1 :]
            if t == simplex:
                continue
            other = (t, transport(s, e, t))
            if other in adjacency:
                adjacency[(s, e)].add(other)
                adjacency[other].add((s, e))

    classes = []
    seen = set()
    for m in members:
        if m in seen:
            continue
        component = {m}
        queue = [m]
        while queue:
            for nxt in adjacency[queue.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    queue.append(nxt)
        seen |= component
        classes.append(component)
    targets = [
        {transport(s, e, simplex) for s, e in component} for component in classes
    ]
    assert all(len(t) == 1 for t in targets)  # well defined on components
    return [next(iter(t)) for t in targets]


class TestDegrees:
    def test_two_routes_values(self):
        r = routes_structure()
        assert r.degree(("A", "B", "top")) == 3  # 1 + 1 + 1
        assert r.degree(("top",)) == 9  # chain bot<A<B<top squared
        assert r.degree(("A", "top")) == 5  # 1 + 4
        assert r.degree(("A",)) == 1

    def test_plus_raises_minus_lowers(self):
        r = routes_structure()
        # dropping A from (A, top): composition face, 5 -> 9
        assert r.degree(("A", "top")) < r.degree(("top",))
        # dropping top from (A, top): projection face, 5 -> 1
        assert r.degree(("A",)) < r.degree(("A", "top"))

    def test_audit_clean_on_two_routes(self):
        assert audit_reedy(routes_structure()) == []

    def test_audit_clean_random(self):
        rng = random.Random(51)
        for _ in range(30):
            p = random_bounded_poset(rng, levels=5)
            for state in p.elements:
                assert audit_reedy(reedy_structure(p, state)) == []

    def test_unknown_simplex(self):
        with pytest.raises(UnknownSimplex):
            routes_structure().degree(("bot",))


class TestFactorize:
    def test_identity(self):
        r = routes_structure()
        arrow = (("A", "top"), ("A", "top"))
        assert r.factorize(arrow) == ((("A", "top"), ("A", "top")), arrow)

    def test_drop_to_first_vertex(self):
        r = routes_structure()
        minus, plus = r.factorize((("A", "B", "top"), ("A",)))
        assert minus == (("A", "B", "top"), ("A",))
        assert plus == (("A",), ("A",))
        assert r.is_minus(minus) and r.is_plus(plus)

    def test_drop_first_keep_last(self):
        r = routes_structure()
        minus, plus = r.factorize((("A", "B", "top"), ("B", "top")))
        assert minus == (("A", "B", "top"), ("A", "B", "top"))
        assert plus == (("A", "B", "top"), ("B", "top"))

    def test_mixed(self):
        r = routes_structure()
        minus, plus = r.factorize((("A", "B", "top"), ("B",)))
        assert minus == (("A", "B", "top"), ("A", "B"))
        assert plus == (("A", "B"), ("B",))

    def test_recompose_bijection_random(self):
        rng = random.Random(52)
        for _ in range(20):
            p = random_bounded_poset(rng)
            for state in p.elements:
                r = reedy_structure(p, state)
                for arrow in r.arrows():
                    minus, plus = r.factorize(arrow)
                    assert minus[0] == arrow[0]
                    assert plus[1] == arrow[1]
                    assert minus[1] == plus[0]
                    assert r.is_minus(minus)
                    assert r.is_plus(plus)

    def test_not_an_arrow(self):
        with pytest.raises(NotAnArrow):
            routes_structure().factorize(((("A",), ("B",))))


class TestMatchingCategory:
    def test_tower(self):
        cat = matching_category(routes_structure(), ("A", "B", "top"))
        assert cat.objects == (("A",), ("A", "B"))
        assert len(cat.arrows) == 1

    def test_vertex_empty(self):
        cat = matching_category(routes_structure(), ("A",))
        assert cat.objects == ()

    def test_edge_single_object(self):
        cat = matching_category(routes_structure(), ("A", "B"))
        assert cat.objects == (("A",),)
        assert len(cat.arrows) == 0


class TestLatchingObject:
    def test_two_routes_vertex_a_empty(self):
        latch = latching_object(routes_diagram(), ("A",))
        assert len(latch) == 0

    def test_two_routes_top_vertex_two_classes_not_injective(self):
        # the routes through A/B and through C refine (top) separately but
        # compose to the same class, so the latching map merges them:
        # this flow is presented with a relation and is not a cell complex
        d = routes_diagram()
        oracle = oracle_latching(d, ("top",))
        assert len(oracle) == 2
        latch = latching_object(d, ("top",))
        assert len(latch) == 2
        assert not latch.injective
        assert sorted(latch.fiber_sizes().values()) == [2]

    def test_two_chain_top_empty(self):
        flow = flow_of_poset(Poset.from_relations(["p0", "p1"], [("p0", "p1")]))
        d = BranchDiagram(flow, "p0", MINUS)
        assert len(latching_object(d, ("p1",))) == 0

    def test_oracle_agreement_random(self):
        rng = random.Random(53)
        for _ in range(15):
            flow = random_loopless_flow(rng, max_states=6, max_weight=500)
            for state in flow.states:
                d = BranchDiagram(flow, state, MINUS)
                for s in d.simplices:
                    latch = latching_object(d, s)
                    oracle = oracle_latching(d, s)
                    assert len(latch) == len(oracle)
                    assert sorted(latch.target.values()) == sorted(oracle)


class TestLatchingInjectivity:
    def test_free_flows_injective(self):
        rng = random.Random(54)
        for _ in range(15):
            flow = random_loopless_flow(
                rng, max_states=7, relations=False, max_weight=500
            )
            for state in flow.states:
                assert check_latching_injective(BranchDiagram(flow, state, MINUS))

    def test_two_routes_flow_not_injective(self):
        # the relation collapses the two routes: cofibrancy fails at (top)
        assert not check_latching_injective(routes_diagram())

    def test_free_two_routes_presentation_injective(self):
        gens = tuple((f"{a}>{b}", a, b) for a, b in two_routes_poset().covers())
        free = Flow(FlowPresentation(two_routes_poset().elements, gens))
        assert check_latching_injective(BranchDiagram(free, "bot", MINUS))

    def test_empty_diagram(self):
        assert check_latching_injective(BranchDiagram(ball_flow(), "top", MINUS))

    def test_restricted_fan_map_not_mono(self):
        # gluing only over the 1-simplices (no triangle) triple-counts the
        # maximal class: the two-level subdiagram cannot be levelwise
        # cofibrant over (top)
        d = routes_diagram()
        one_simplices = [s for s in d.simplices if len(s) == 2 and s[-1] == "top"]
        images = [
            d.face(s, ("top",), e) for s in one_simplices for e in d.vertex_set(s)
        ]
        assert len(images) == 3
        assert len(set(images)) == 1  # 3 elements onto 1: far from injective


def ball_flow():
    return flow_of_poset(two_routes_poset())


class TestLatchingFormula:
    def test_two_routes_all_simplices(self):
        d = routes_diagram()
        for s in d.simplices:
            assert verify_latching_formula(d, s)

    def test_glob(self):
        d = BranchDiagram(glob(2), "0", MINUS)
        assert verify_latching_formula(d, ("1",))

    def test_random_poset_flows(self):
        rng = random.Random(55)
        for _ in range(15):
            p = random_bounded_poset(rng, max_inner=4, levels=3)
            flow = flow_of_poset(p)
            for state in p.elements:
                d = BranchDiagram(flow, state, MINUS)
                for s in d.simplices:
                    assert verify_latching_formula(d, s)

    def test_random_flows_with_relations(self):
        rng = random.Random(56)
        for _ in range(10):
            flow = random_loopless_flow(rng, max_states=6, max_weight=400)
            for state in flow.states:
                d = BranchDiagram(flow, state, MINUS)
                for s in d.simplices:
                    assert verify_latching_formula(d, s)


class TestPushoutProduct:
    def test_two_empty_inclusions(self):
        f = SetMap((), ("*",), {})
        pp = pushout_product([f, f])
        assert len(pp.domain) == 0
        assert len(pp.codomain) == 1

    def test_inclusion_squared(self):
        inc = SetMap((0, 1), (0, 1, 2), {0: 0, 1: 1})
        pp = pushout_product([inc, inc])
        assert len(pp.domain) == 8  # 6 + 6 - 4
        assert len(pp.codomain) == 9
        injective = len(set(pp.mapping.values())) == len(pp.domain)
        assert injective

    def test_single_map_is_the_map(self):
        inc = SetMap((0, 1), (0, 1, 2), {0: 0, 1: 1})
        pp = pushout_product([inc])
        assert same_fibers(pp, inc, translate=lambda x: (x,))

    def test_matches_iterated_binary(self):
        rng = random.Random(57)
        for _ in range(200):
            maps = [random_set_map(rng) for _ in range(rng.randint(1, 4))]
            cube = pushout_product(maps)
            folded = iterated_pushout_product(maps)
            assert same_fibers(cube, folded, lambda e: flatten_pairs(e, len(maps)))

    def test_binary_agrees_with_cube_exactly(self):
        f = SetMap(("a",), ("a", "b"), {"a": "a"})
        g = SetMap((), ("c",), {})
        assert same_fibers(
            pushout_product([f, g]), binary_pushout_product(f, g), lambda e: e
        )

    def test_cube_functoriality(self):
        rng = random.Random(58)
        for _ in range(50):
            maps = [random_set_map(rng) for _ in range(rng.randint(2, 3))]
            cube = CubeDiagram(maps)
            n = len(maps)
            subsets = [
                tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
            ]
            for s in subsets:
                for t in subsets:
                    if not set(s) <= set(t):
                        continue
                    for u in subsets:
                        if not set(t) <= set(u):
                            continue
                        two_steps = lambda e: cube.edge(t, u)(cube.edge(s, t)(e))
                        direct = cube.edge(s, u)
                        for e in cube.vertex(s):
                            assert two_steps(e) == direct(e)


class TestProductColimits:
    def test_product_of_colimits(self):
        rng = random.Random(59)
        for _ in range(60):
            sets1, edges1 = random_set_diagram(rng)
            sets2, edges2 = random_set_diagram(rng)
            left = SetColimit(sets1, edges1)
            right = SetColimit(sets2, edges2)
            prod_sets = {
                (u, v): tuple((x, y) for x in sets1[u] for y in sets2[v])
                for u in sets1
                for v in sets2
            }
            prod_edges = []
            for (u, v, fn) in edges1:
                for w in sets2:
                    prod_edges.append(
                        ((u, w), (v, w), lambda e, fn=fn: (fn(e[0]), e[1]))
                    )
            for (u, v, fn) in edges2:
                for w in sets1:
                    prod_edges.append(
                        ((w, u), (w, v), lambda e, fn=fn: (e[0], fn(e[1])))
                    )
            product = SetColimit(prod_sets, prod_edges)
            # the canonical map to the product of colimits is a bijection
            mapping = {}
            for (u, v), elements in prod_sets.items():
                for (x, y) in elements:
                    key = product.class_of((u, v), (x, y))
                    val = (left.class_of(u, x), right.class_of(v, y))
                    assert mapping.setdefault(key, val) == val
            assert len(set(mapping.values())) == len(mapping) == len(product)
            assert len(product) == sum(
                1
                for _ in (
                    (a, b) for a in left.classes for b in right.classes
                    if any(
                        left.class_of(u, x) == a and right.class_of(v, y) == b
                        for (u, v), els in prod_sets.items()
                        for (x, y) in els
                    )
                )
            )


class TestSetMapValidation:
    def test_totality(self):
        with pytest.raises(ValueError):
            SetMap((0, 1), (0,), {0: 0})

    def test_codomain(self):
        with pytest.raises(ValueError):
            SetMap((0,), (1,), {0: 0})
