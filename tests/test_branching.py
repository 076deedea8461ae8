"""Germ spaces, branch diagrams, colimits, per-state homology, tables.

The hand-derivable germ counts (no compositions: one class per path;
everything composing into one maximal path: one class) are frozen inline;
the diagram colimits are cross-checked against them through the natural
map, which is this library's central oracle.
"""

import random
from functools import cache
from itertools import combinations

import pytest

from flowhom.branching import (
    EMPTY_SPACE,
    MINUS,
    PLUS,
    BranchDiagram,
    HomologyTable,
    branch_space_homology,
    colimit_matches_germ_fiber,
    diagram_colimit,
    extension_category,
    final_subdiagram_check,
    germ_space,
    grothendieck_category,
    restricted_subcategory,
)
from flowhom.errors import UnknownState
from flowhom.flows import flow_of_poset, glob
from flowhom.homology import (
    HomologyGroup,
    LoopFreeCategory,
    ZERO_GROUP,
    core,
    homology,
    homology_ranks,
    nerve,
)
from flowhom.poset import Poset
from flowhom.randgen import diagram_weight, random_loopless_flow
from flowhom.unionfind import UnionFind

from test_flows import oracle_flows
from test_poset import two_routes_poset


def two_routes_flow():
    return flow_of_poset(two_routes_poset())


def fan_flow():
    return flow_of_poset(
        Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
    )


def all_pairs_germs(flow, sign):
    """The germ quotient with one identification per composable pair of
    classes: x ~ x*y (minus) or y ~ x*y (plus)."""
    uf = UnionFind()
    for x in flow.all_classes():
        uf.add(x)
    for a, b in flow.nonempty_pairs():
        for c in flow.states:
            for x in flow.path_set(a, b):
                for y in flow.path_set(b, c):
                    uf.union(x if sign == MINUS else y, flow.compose(x, y))
    return tuple(sorted(uf.classes().values()))


class TestGermSpace:
    @pytest.mark.parametrize("sign", [MINUS, PLUS])
    def test_generator_steps_match_all_pairs(self, sign):
        for flow in oracle_flows():
            assert germ_space(flow, sign).classes == all_pairs_germs(flow, sign)

    def test_fan_two_classes(self):
        # no composable pairs at all: classes = single paths
        germs = germ_space(fan_flow(), MINUS)
        assert len(germs.fiber("z")) == 2
        assert len(germs) == 2

    def test_two_routes_single_class_at_bottom(self):
        # every path from bot extends into the unique maximal class
        germs = germ_space(two_routes_flow(), MINUS)
        assert len(germs.fiber("bot")) == 1
        assert len(germs.fiber("bot")[0]) == 4  # classes to A, B, C, top

    def test_glob_no_compositions(self):
        germs = germ_space(glob(2), MINUS)
        assert len(germs.fiber("0")) == 2

    def test_plus_anchors_at_target(self):
        germs = germ_space(fan_flow(), PLUS)
        assert len(germs.fiber("a")) == 1
        assert len(germs.fiber("b")) == 1
        assert len(germs.fiber("z")) == 0

    def test_plus_equals_minus_of_opposite(self):
        rng = random.Random(31)
        for _ in range(20):
            flow = random_loopless_flow(rng, max_states=7)
            plus = germ_space(flow, PLUS)
            dual = germ_space(flow.opposite(), MINUS)
            for state in flow.states:
                assert len(plus.fiber(state)) == len(dual.fiber(state))

    def test_anchor_consistency(self):
        rng = random.Random(32)
        for _ in range(10):
            flow = random_loopless_flow(rng, max_states=7)
            germs = germ_space(flow, MINUS)
            for cls in germs.classes:
                assert len({flow.source(x) for x in cls}) == 1


class TestBranchDiagram:
    def test_two_routes_vertex_sets(self):
        d = BranchDiagram(two_routes_flow(), "bot", MINUS)
        assert len(d.simplices) == 9
        triple = d.vertex_set(("A", "B", "top"))
        assert len(triple) == 1
        assert len(triple[0]) == 3  # one class per segment bot-A, A-B, B-top

    def test_glob_single_vertex(self):
        d = BranchDiagram(glob(2), "0", MINUS)
        assert d.simplices == (("1",),)
        assert len(d.vertex_set(("1",))) == 2

    def test_empty_at_top(self):
        d = BranchDiagram(two_routes_flow(), "top", MINUS)
        assert d.is_empty

    def test_plus_uses_lower_set(self):
        d = BranchDiagram(two_routes_flow(), "top", PLUS)
        assert not d.is_empty
        assert set(d.index.of_dim(0)) == {("A",), ("B",), ("C",), ("bot",)}

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            BranchDiagram(two_routes_flow(), "nope", MINUS)

    def test_simplicial_identities_elementwise(self):
        rng = random.Random(33)
        flows = [two_routes_flow(), glob(3)] + [
            random_loopless_flow(rng, max_states=6) for _ in range(10)
        ]
        for flow in flows:
            for state in flow.states:
                d = BranchDiagram(flow, state, MINUS)
                for s in d.simplices:
                    p = len(s) - 1
                    if p < 2:
                        continue
                    for element in d.vertex_set(s):
                        for i, j in combinations(range(p + 1), 2):
                            via_j = d.face(s, s[:j] + s[j + 1 :], element)
                            one = d.face(
                                s[:j] + s[j + 1 :],
                                _drop(s[:j] + s[j + 1 :], i),
                                via_j,
                            )
                            via_i = d.face(s, s[:i] + s[i + 1 :], element)
                            other = d.face(
                                s[:i] + s[i + 1 :],
                                _drop(s[:i] + s[i + 1 :], j - 1),
                                via_i,
                            )
                            assert one == other


def _drop(simplex, i):
    return simplex[:i] + simplex[i + 1 :]


class TestDiagramColimit:
    def test_two_routes_single_element(self):
        assert len(diagram_colimit(BranchDiagram(two_routes_flow(), "bot", MINUS))) == 1

    def test_empty_diagram(self):
        assert len(diagram_colimit(BranchDiagram(two_routes_flow(), "top", MINUS))) == 0

    def test_fan_two_elements(self):
        assert len(diagram_colimit(BranchDiagram(fan_flow(), "z", MINUS))) == 2

    def test_matches_germ_fiber_everywhere(self):
        rng = random.Random(34)
        flows = [two_routes_flow(), fan_flow(), glob(2)] + [
            random_loopless_flow(rng, max_states=8) for _ in range(25)
        ]
        for flow in flows:
            # each sign's diagrams read the minus germs of their working flow
            germs = {
                MINUS: germ_space(flow, MINUS),
                PLUS: germ_space(flow.opposite(), MINUS),
            }
            for state in flow.states:
                for sign in (MINUS, PLUS):
                    diagram = BranchDiagram(flow, state, sign)
                    assert colimit_matches_germ_fiber(
                        diagram, diagram_colimit(diagram), germs[sign]
                    )


class TestFinalSubcategory:
    def test_two_routes(self):
        d = BranchDiagram(two_routes_flow(), "bot", MINUS)
        cat = restricted_subcategory(d)
        assert len(cat.objects) == 8
        assert len(cat.arrows) == 8
        assert final_subdiagram_check(d)

    def test_singleton_index(self):
        assert final_subdiagram_check(BranchDiagram(glob(2), "0", MINUS))

    def test_diamond(self):
        diamond = flow_of_poset(
            Poset.from_relations(
                ["b", "x", "y", "t"],
                [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")],
            )
        )
        assert final_subdiagram_check(BranchDiagram(diamond, "b", MINUS))

    def test_random(self):
        rng = random.Random(35)
        for _ in range(15):
            flow = random_loopless_flow(rng, max_states=6)
            for state in flow.states:
                assert final_subdiagram_check(BranchDiagram(flow, state, MINUS))


class TestCircleCounterexample:
    def test_restricted_nerve_is_a_circle(self):
        d = BranchDiagram(two_routes_flow(), "bot", MINUS)
        complex_ = nerve(restricted_subcategory(d))
        assert complex_.dims == (8, 8)
        assert homology(complex_, 0) == HomologyGroup(1)
        assert homology(complex_, 1) == HomologyGroup(1)


class TestGrothendieck:
    def test_arrows_strictly_shrink(self):
        d = BranchDiagram(two_routes_flow(), "bot", MINUS)
        cat = grothendieck_category(d)
        for (src, dst) in cat.arrows.values():
            assert len(dst[0]) < len(src[0])

    def test_two_routes_is_barycentric_subdivision(self):
        # all path sets are singletons, so objects = simplices
        d = BranchDiagram(two_routes_flow(), "bot", MINUS)
        cat = grothendieck_category(d)
        assert len(cat.objects) == 9


class TestExtensionCategory:
    def test_matches_grothendieck_oracle(self):
        # the Grothendieck nerve is the barycentric subdivision of the
        # nerve of E_a: same groups in every degree, same top degree
        rng = random.Random(42)
        spaces = 0
        for _ in range(60):
            flow = random_loopless_flow(rng, max_states=6, max_weight=200)
            cells = 0
            for sign in (MINUS, PLUS):
                for state in flow.states:
                    category = extension_category(flow, state, sign)
                    cells += sum(nerve(category).dims)
                    h = branch_space_homology(flow, state, sign)
                    d = BranchDiagram(flow, state, sign)
                    assert h.empty == d.is_empty
                    if d.is_empty:
                        continue
                    spaces += 1
                    oracle = nerve(grothendieck_category(d))
                    assert len(h.groups) == len(oracle.dims)
                    assert list(h.groups) == homology_ranks(oracle)
                    assert h.reduced[0] == homology(oracle, 0, reduced=True)
            # one nerve cell per branch-diagram object, for either sign
            assert cells == 2 * diagram_weight(flow)
        assert spaces >= 300

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            extension_category(two_routes_flow(), "nowhere", PLUS)


@cache
def core_oracle_spaces():
    """(flow, state, sign, E_a) for every nonempty space, both signs, of
    100 seeded random flows: 753 spaces, 50 with higher homology."""
    rng = random.Random(12)
    spaces = []
    for _ in range(100):
        flow = random_loopless_flow(rng, max_weight=300)
        for sign in (MINUS, PLUS):
            for state in flow.states:
                category = extension_category(flow, state, sign)
                if category.objects:
                    spaces.append((flow, state, sign, category))
    return tuple(spaces)


def full_subcategory(category, keep):
    keep = set(keep)
    arrows = {f: e for f, e in category.arrows.items() if e[0] in keep and e[1] in keep}
    compose = {
        (f, g): h for (f, g), h in category.compose.items() if f in arrows and g in arrows
    }
    return LoopFreeCategory(keep, arrows, compose)


def agrees_with_nerve(full, category):
    """Same groups as the complex ``full`` in every degree (zero past the
    top of the smaller nerve) and the same reduced H_0."""
    small = nerve(category)
    groups = homology_ranks(small)
    if len(groups) > len(full.dims):
        return False
    groups += [ZERO_GROUP] * (len(full.dims) - len(groups))
    return groups == homology_ranks(full) and (
        homology(small, 0, reduced=True) == homology(full, 0, reduced=True)
    )


class TestCore:
    """The nerve of the whole extension category is the oracle for the
    homology of its core."""

    def test_agrees_with_whole_extension_nerve(self):
        counted = {MINUS: 0, PLUS: 0}
        with_h1 = 0
        for flow, state, sign, category in core_oracle_spaces():
            full = nerve(category)
            assert agrees_with_nerve(full, core(category))
            h = branch_space_homology(flow, state, sign)
            # padded up to the top degree of the whole nerve
            assert len(h.groups) == len(full.dims)
            assert list(h.groups) == homology_ranks(full)
            assert h.reduced[0] == homology(full, 0, reduced=True)
            counted[sign] += 1
            with_h1 += not h.group(1).is_zero
        assert min(counted.values()) >= 300
        assert with_h1 >= 10

    def test_is_full_subcategory(self):
        for _, _, _, category in core_oracle_spaces():
            reduced = core(category)
            assert set(reduced.objects) <= set(category.objects)
            whole = full_subcategory(category, reduced.objects)
            assert reduced.arrows == whole.arrows
            assert reduced.compose == whole.compose

    def test_dropping_a_core_object_is_caught(self):
        # a core that also drops its first object must fail the oracle on
        # almost every space: a single-object core leaves nothing, and a
        # larger one is not collapsible any further
        tried = caught = 0
        for _, _, _, category in core_oracle_spaces():
            reduced = core(category)
            mutant = full_subcategory(reduced, reduced.objects[1:])
            tried += 1
            caught += not agrees_with_nerve(nerve(category), mutant)
        assert caught >= 0.95 * tried


class TestSpaceHomology:
    def test_two_routes_contractible_fibers(self):
        flow = two_routes_flow()
        for state in ("bot", "A", "B", "C"):
            h = branch_space_homology(flow, state, MINUS)
            assert h.is_contractible_like()

    def test_two_routes_empty_at_top(self):
        assert branch_space_homology(two_routes_flow(), "top", MINUS).empty

    def test_two_routes_plus_dual(self):
        flow = two_routes_flow()
        assert branch_space_homology(flow, "bot", PLUS).empty
        for state in ("A", "B", "C", "top"):
            assert branch_space_homology(flow, state, PLUS).is_contractible_like()

    def test_fan_two_points(self):
        h = branch_space_homology(fan_flow(), "z", MINUS)
        assert h.group(0) == HomologyGroup(2)
        assert h.reduced_group(0) == HomologyGroup(1)

    def test_empty_marker_is_not_zero_homology(self):
        h = branch_space_homology(two_routes_flow(), "top", MINUS)
        assert h is EMPTY_SPACE
        with pytest.raises(ValueError):
            h.group(0)

    def test_plus_is_minus_of_opposite(self):
        rng = random.Random(36)
        for _ in range(10):
            flow = random_loopless_flow(rng, max_states=6, max_weight=400)
            for state in flow.states:
                left = branch_space_homology(flow, state, PLUS)
                right = branch_space_homology(flow.opposite(), state, MINUS)
                assert left.same_as(right)

    def test_singleton_flows_reduce_to_order_complex(self):
        # with one class per comparable pair the space has the homology of
        # the order complex of the states strictly above
        from flowhom.homology import complex_of_order_complex
        from test_poset import random_poset

        rng = random.Random(37)
        for _ in range(15):
            p = random_poset(rng, max_n=5)
            flow = flow_of_poset(p)
            for state in p.elements:
                h = branch_space_homology(flow, state, MINUS)
                upper = p.strict_upper_set(state)
                if len(upper) == 0:
                    assert h.empty
                    continue
                c = complex_of_order_complex(upper.order_complex())
                expected = homology_ranks(c)
                for n in range(max(len(expected), h.max_degree + 1)):
                    want = expected[n] if n < len(expected) else ZERO_GROUP
                    assert h.group(n) == want


class TestHomologyTable:
    def test_two_routes_minus(self):
        table = HomologyTable(two_routes_flow(), MINUS)
        assert table.group(0) == HomologyGroup(1)
        assert all(table.group(n).is_zero for n in range(1, table.max_degree + 2))

    def test_two_routes_plus(self):
        table = HomologyTable(two_routes_flow(), PLUS)
        assert table.group(0) == HomologyGroup(1)
        assert all(table.group(n).is_zero for n in range(1, table.max_degree + 2))

    def test_fan_minus(self):
        table = HomologyTable(fan_flow(), MINUS)
        assert table.group(0) == HomologyGroup(2)
        assert table.group(1) == HomologyGroup(1)
        assert all(table.group(n).is_zero for n in range(2, table.max_degree + 2))

    def test_degree_zero_counts_endpoints(self):
        rng = random.Random(38)
        for _ in range(10):
            flow = random_loopless_flow(rng, max_states=6, max_weight=400)
            assert HomologyTable(flow, MINUS).group(0).betti == len(
                flow.final_states()
            )
            assert HomologyTable(flow, PLUS).group(0).betti == len(
                flow.initial_states()
            )

    def test_duality(self):
        rng = random.Random(39)
        for _ in range(10):
            flow = random_loopless_flow(rng, max_states=6, max_weight=400)
            assert HomologyTable(flow, PLUS).same_groups(
                HomologyTable(flow.opposite(), MINUS)
            )

    def test_ball_tables_are_trivial(self):
        # any one-class-per-pair bounded flow: only degree 0 survives, and
        # per state the space is contractible except at the missing end
        from test_poset import random_poset

        rng = random.Random(40)
        seen = 0
        while seen < 10:
            p = random_poset(rng)
            if not p.is_bounded():
                continue
            seen += 1
            flow = flow_of_poset(p)
            bottom, top = p.bounds()
            for sign, absent in ((MINUS, top), (PLUS, bottom)):
                table = HomologyTable(flow, sign)
                assert table.group(0) == HomologyGroup(1)
                assert all(
                    table.group(n).is_zero
                    for n in range(1, table.max_degree + 2)
                )
                for state in flow.states:
                    h = table.per_state[state]
                    if state == absent:
                        assert h.empty
                    else:
                        assert h.is_contractible_like()

    def test_empty_flow(self):
        from flowhom.flows import Flow, FlowPresentation

        empty = Flow(FlowPresentation((), ()))
        table = HomologyTable(empty, MINUS)
        assert table.group(0) == ZERO_GROUP
        assert table.max_degree == 0

    def test_wide_glob_rank(self):
        # k parallel branches: k - 1 independent degree-1 classes
        table = HomologyTable(glob(4), MINUS)
        assert table.group(0) == HomologyGroup(1)
        assert table.group(1) == HomologyGroup(3)

    def test_two_binary_splits_in_series(self):
        # a < b < c with two parallel transitions on each step; hand count:
        # the space at a retracts onto the first split (2 points), the one
        # at b onto the second, so degree 1 collects Z + Z
        from flowhom.flows import Flow, FlowPresentation

        flow = Flow(
            FlowPresentation(
                ("a", "b", "c"),
                (
                    ("g1", "a", "b"), ("g2", "a", "b"),
                    ("h1", "b", "c"), ("h2", "b", "c"),
                ),
            )
        )
        ha = branch_space_homology(flow, "a", MINUS)
        assert ha.reduced_group(0) == HomologyGroup(1)
        assert all(ha.reduced_group(n).is_zero for n in range(1, ha.max_degree + 1))
        table = HomologyTable(flow, MINUS)
        assert table.group(0) == HomologyGroup(1)
        assert table.group(1) == HomologyGroup(2)
        assert all(table.group(n).is_zero for n in range(2, table.max_degree + 2))

    def test_euler_characteristic_consistency(self):
        # alternating sums of Betti numbers and cell counts must agree:
        # a strong internal consistency check on the whole SNF pipeline
        from flowhom.homology import nerve as build_nerve

        rng = random.Random(41)
        for _ in range(12):
            flow = random_loopless_flow(rng, max_states=6, max_weight=300)
            for state in flow.states:
                d = BranchDiagram(flow, state, MINUS)
                if d.is_empty:
                    continue
                complex_ = build_nerve(grothendieck_category(d))
                cells = sum((-1) ** n * complex_.dims[n] for n in range(len(complex_.dims)))
                h = branch_space_homology(flow, state, MINUS)
                betti = sum(
                    (-1) ** n * h.group(n).betti for n in range(h.max_degree + 1)
                )
                assert cells == betti
