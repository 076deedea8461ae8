"""Refinement pushouts, the surrounded predicate, invariance checking."""

import random

import pytest

from flowhom.branching import MINUS, PLUS, HomologyTable
from flowhom.errors import EmbeddingInvalid, LoopError
from flowhom.flows import Flow, FlowPresentation, flow_of_poset, glob
from flowhom.homology import HomologyGroup
from flowhom.poset import Poset
from flowhom.randgen import random_refinement_instance
from flowhom.refine import (
    BallEmbedding,
    TMorphism,
    check_invariance,
    refine_pushout,
    surrounded,
    validate_t_morphism,
)


def chain_poset(labels):
    return Poset.from_relations(labels, list(zip(labels, labels[1:])))


TWO = chain_poset(["p0", "p1"])
THREE = chain_poset(["q0", "qm", "q1"])


def interval_refinement():
    host = flow_of_poset(chain_poset(["s0", "s1"]))
    pattern = TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "q1")))
    embedding = BallEmbedding(
        ball=TWO,
        host=host,
        state_map=(("p0", "s0"), ("p1", "s1")),
        path_choice=((("p0", "p1"), host.path_set("s0", "s1")[0]),),
    )
    return host, pattern, embedding


class TestTMorphism:
    def test_interval_to_three_chain(self):
        ok, problems = validate_t_morphism(
            TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "q1")))
        )
        assert ok and problems == []

    def test_lookups_and_unknown_keys(self):
        host, pattern, embedding = interval_refinement()
        assert pattern.apply("p1") == "q1"
        assert embedding.state_of("p0") == "s0"
        assert embedding.choice("p0", "p1") == host.path_set("s0", "s1")[0]
        for lookup, key in ((pattern.apply, ("q0",)), (embedding.state_of, ("s0",)),
                            (embedding.choice, ("p1", "p0"))):
            with pytest.raises(KeyError):
                lookup(*key)

    def test_interval_to_diamond(self):
        diamond = Poset.from_relations(
            ["q0", "qa", "qb", "q1"],
            [("q0", "qa"), ("q0", "qb"), ("qa", "q1"), ("qb", "q1")],
        )
        ok, _ = validate_t_morphism(
            TMorphism(TWO, diamond, (("p0", "q0"), ("p1", "q1")))
        )
        assert ok

    def test_max_not_preserved(self):
        ok, problems = validate_t_morphism(
            TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "qm")))
        )
        assert not ok
        assert any("condition 3" in p for p in problems)

    def test_not_injective(self):
        ok, problems = validate_t_morphism(
            TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "q0")))
        )
        assert not ok
        assert any("condition 2" in p for p in problems)

    def test_unbounded_source(self):
        anti = Poset.from_relations(["x", "y"], [])
        ok, problems = validate_t_morphism(
            TMorphism(anti, THREE, (("x", "q0"), ("y", "q1")))
        )
        assert not ok
        assert any("condition 1" in p for p in problems)


class TestRefinePushout:
    def test_interval_subdivision(self):
        host, pattern, embedding = interval_refinement()
        result = refine_pushout(host, pattern, embedding)
        refined = result.refined
        assert result.new_states == {"qm"}
        assert refined.states == ("qm", "s0", "s1")
        assert set(refined.nonempty_pairs()) == {
            ("s0", "qm"), ("qm", "s1"), ("s0", "s1")
        }
        assert all(len(refined.path_set(*p)) == 1 for p in refined.nonempty_pairs())
        assert refined.is_full_directed_ball()

    def test_branch_refinement(self):
        fan = flow_of_poset(
            Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
        )
        ball = chain_poset(["p0", "p1"])
        pattern = TMorphism(ball, THREE, (("p0", "q0"), ("p1", "q1")))
        embedding = BallEmbedding(
            ball=ball,
            host=fan,
            state_map=(("p0", "z"), ("p1", "a")),
            path_choice=((("p0", "p1"), fan.path_set("z", "a")[0]),),
        )
        refined = refine_pushout(fan, pattern, embedding).refined
        assert len(refined.states) == 4
        assert len(refined.path_set("z", "a")) == 1

    def test_glob_branch_subdivision(self):
        g2 = glob(2, ("s0", "s1"))
        pattern = TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "q1")))
        embedding = BallEmbedding(
            ball=TWO,
            host=g2,
            state_map=(("p0", "s0"), ("p1", "s1")),
            path_choice=((("p0", "p1"), ("g1",)),),
        )
        refined = refine_pushout(g2, pattern, embedding).refined
        assert len(refined.states) == 3
        # the subdivided branch now equals the two-step composite; the
        # untouched branch stays its own class
        assert len(refined.path_set("s0", "s1")) == 2

    def test_state_count_formula(self):
        rng = random.Random(61)
        for _ in range(20):
            host, pattern, embedding = random_refinement_instance(rng)
            result = refine_pushout(host, pattern, embedding)
            assert len(result.refined.states) == len(host.states) + len(
                pattern.target
            ) - len(pattern.source)

    def test_label_collision_disambiguated(self):
        host = flow_of_poset(chain_poset(["s0", "qm", "s1"]))
        ball = chain_poset(["p0", "p1"])
        # the fine poset's new element is named like an existing host state
        pattern = TMorphism(ball, THREE, (("p0", "q0"), ("p1", "q1")))
        embedding = BallEmbedding(
            ball=ball,
            host=host,
            state_map=(("p0", "s0"), ("p1", "qm")),
            path_choice=((("p0", "p1"), host.path_set("s0", "qm")[0]),),
        )
        result = refine_pushout(host, pattern, embedding)
        assert result.new_states == {"qm'"}

    def test_invalid_pattern_rejected(self):
        host, _, embedding = interval_refinement()
        bad = TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "qm")))
        with pytest.raises(EmbeddingInvalid):
            refine_pushout(host, bad, embedding)

    @pytest.mark.parametrize("repeat", ["mapping", "state_map", "path_choice"])
    def test_repeated_key_rejected(self, repeat):
        # a key given twice must fail validation, not reach the pushout with
        # a pair the validators never read
        host, pattern, embedding = interval_refinement()
        state_map, path_choice = embedding.state_map, embedding.path_choice
        if repeat == "mapping":
            pattern = TMorphism(TWO, THREE, (("p0", "m"), ("p0", "q0"), ("p1", "q1")))
        elif repeat == "state_map":
            state_map = (("p0", "s0"), ("p1", "s0"), ("p1", "s1"))
        else:
            path_choice = ((("p0", "p1"), ("a",)),) + path_choice
        embedding = BallEmbedding(
            ball=TWO, host=host, state_map=state_map, path_choice=path_choice
        )
        with pytest.raises(EmbeddingInvalid):
            refine_pushout(host, pattern, embedding)

    def test_non_multiplicative_choice_rejected(self):
        # host: a three-chain with a parallel shortcut class; choosing the
        # shortcut for the long pair breaks multiplicativity
        base = flow_of_poset(chain_poset(["s0", "s1", "s2"]))
        pres = base.presentation
        host = Flow(
            FlowPresentation(
                pres.states,
                pres.generators + (("shortcut", "s0", "s2"),),
                pres.relations,
            )
        )
        ball = chain_poset(["p0", "p1", "p2"])
        embedding = BallEmbedding(
            ball=ball,
            host=host,
            state_map=(("p0", "s0"), ("p1", "s1"), ("p2", "s2")),
            path_choice=(
                (("p0", "p1"), host.path_set("s0", "s1")[0]),
                (("p1", "p2"), host.path_set("s1", "s2")[0]),
                (("p0", "p2"), ("shortcut",)),
            ),
        )
        problems = embedding.diagnostics()
        assert any("multiplicative" in p for p in problems)
        pattern = TMorphism(
            ball, chain_poset(["q0", "q1", "q2"]),
            (("p0", "q0"), ("p1", "q1"), ("p2", "q2")),
        )
        with pytest.raises(EmbeddingInvalid):
            refine_pushout(host, pattern, embedding)

    def test_cyclic_gluing_raises_loop_error(self):
        # the finer poset orders two ball elements against the host's own
        # order between their images: the merged graph acquires a cycle
        host = flow_of_poset(
            Poset.from_relations(
                ["b", "x", "y", "t"],
                [("b", "x"), ("x", "y"), ("y", "t")],
            )
        )
        ball = Poset.from_relations(
            ["b", "x", "y", "t"],
            [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")],
        )
        fine = Poset.from_relations(
            ["b", "x", "y", "t"],
            [("b", "y"), ("y", "x"), ("x", "t")],  # reverses x and y
        )
        embedding = BallEmbedding(
            ball=ball,
            host=host,
            state_map=tuple((e, e) for e in ball.elements),
            path_choice=tuple(
                ((a, b), host.path_set(a, b)[0]) for a, b in ball.relation()
            ),
        )
        pattern = TMorphism(ball, fine, tuple((e, e) for e in ball.elements))
        ok, _ = validate_t_morphism(pattern)
        assert ok
        with pytest.raises(LoopError):
            refine_pushout(host, pattern, embedding)


class TestSurrounded:
    def test_subdivided_interval(self):
        host, pattern, embedding = interval_refinement()
        refined = refine_pushout(host, pattern, embedding).refined
        assert surrounded(refined, set(refined.states), {"s0", "s1"})

    def test_subset_always_surrounded(self):
        flow = glob(2)
        assert surrounded(flow, {"0"}, {"0", "1"})

    def test_isolated_state_not_surrounded(self):
        flow = Flow(FlowPresentation(("a", "b", "c"), (("u", "a", "b"),)))
        assert not surrounded(flow, {"c"}, {"a", "b"})


class TestInvariance:
    def test_interval_subdivision_passes(self):
        host, pattern, embedding = interval_refinement()
        result = refine_pushout(host, pattern, embedding)
        report = check_invariance(host, result)
        assert report.passed
        assert HomologyTable(result.refined, MINUS).group(0) == HomologyGroup(1)

    def test_branch_refinement_keeps_h1(self):
        fan = flow_of_poset(
            Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
        )
        ball = chain_poset(["p0", "p1"])
        pattern = TMorphism(ball, THREE, (("p0", "q0"), ("p1", "q1")))
        embedding = BallEmbedding(
            ball=ball,
            host=fan,
            state_map=(("p0", "z"), ("p1", "a")),
            path_choice=((("p0", "p1"), fan.path_set("z", "a")[0]),),
        )
        result = refine_pushout(fan, pattern, embedding)
        report = check_invariance(fan, result)
        assert report.passed
        assert HomologyTable(fan, MINUS).group(1) == HomologyGroup(1)
        assert HomologyTable(result.refined, MINUS).group(1) == HomologyGroup(1)

    def test_glob_branch_keeps_h1(self):
        g2 = glob(2, ("s0", "s1"))
        pattern = TMorphism(TWO, THREE, (("p0", "q0"), ("p1", "q1")))
        embedding = BallEmbedding(
            ball=TWO,
            host=g2,
            state_map=(("p0", "s0"), ("p1", "s1")),
            path_choice=((("p0", "p1"), ("g1",)),),
        )
        result = refine_pushout(g2, pattern, embedding)
        assert check_invariance(g2, result).passed
        assert HomologyTable(g2, MINUS).group(1) == HomologyGroup(1)
        assert HomologyTable(result.refined, MINUS).group(1) == HomologyGroup(1)

    def test_random_instances(self):
        rng = random.Random(62)
        for _ in range(25):
            host, pattern, embedding = random_refinement_instance(rng)
            result = refine_pushout(host, pattern, embedding)
            report = check_invariance(host, result)
            assert report.passed, report.lines()

    def test_report_details_failure(self):
        # comparing a flow against an unrelated "refinement" must fail and
        # name witnesses: fabricate a result object pointing elsewhere
        from flowhom.refine import RefinementResult

        host = glob(2, ("s0", "s1"))
        other = flow_of_poset(chain_poset(["s0", "s1"]))
        fake = RefinementResult(
            refined=other,
            state_correspondence={"s0": "s0", "s1": "s1"},
            ball_image={},
            new_states=frozenset(),
        )
        report = check_invariance(host, fake)
        assert not report.passed
        assert any(w for _, ok, w in report.checks if not ok)


class TestIdentityAndComposition:
    def test_identity_refinement_is_isomorphic(self):
        host, _, embedding = interval_refinement()
        identity = TMorphism(TWO, TWO, (("p0", "p0"), ("p1", "p1")))
        result = refine_pushout(host, identity, embedding)
        refined = result.refined
        assert refined.states == host.states
        for a, b in host.nonempty_pairs():
            host_classes = host.path_set(a, b)
            assert len(refined.path_set(a, b)) == len(host_classes)
            # the canonical morphism (host words keep their letters) is a
            # bijection on classes
            image = {refined.class_of(x) for x in host_classes}
            assert image == set(refined.path_set(a, b))

    def test_two_refinements_compose(self):
        host, pattern, embedding = interval_refinement()
        first = refine_pushout(host, pattern, embedding)
        mid = first.refined
        # refine the lower half of the subdivided interval again
        lower = chain_poset(["r0", "r1"])
        finer = chain_poset(["w0", "wm", "w1"])
        second_embedding = BallEmbedding(
            ball=lower,
            host=mid,
            state_map=(("r0", "s0"), ("r1", "qm")),
            path_choice=((("r0", "r1"), mid.path_set("s0", "qm")[0]),),
        )
        second_pattern = TMorphism(lower, finer, (("r0", "w0"), ("r1", "w1")))
        second = refine_pushout(mid, second_pattern, second_embedding)
        assert check_invariance(mid, second).passed
        # end-to-end: the double refinement preserves the original tables
        for sign in (MINUS, PLUS):
            assert HomologyTable(host, sign).same_groups(
                HomologyTable(second.refined, sign)
            )
