"""Flow elaboration, path classes, canonical constructions.

Class counts for presentations with relations are frozen from the
independent oracle below: breadth-first closure of the word set under
two-sided subword rewriting, no union-find involved.  Whole partitions are
compared with the word-level rescan closure that the one-pass closure
replaced, on a few hundred seeded flows.
"""

import random
from functools import lru_cache
from itertools import product

import pytest

from flowhom.errors import LoopError, NonParallelRelation, UnknownState
from flowhom.flows import Flow, FlowPresentation, flow_of_poset, glob
from flowhom.poset import Poset
from flowhom.randgen import random_bounded_poset, random_loopless_flow
from flowhom.unionfind import UnionFind

from test_poset import two_routes_poset, two_chain, antichain


def two_routes_presentation(with_relation=True) -> FlowPresentation:
    gens = (
        ("uA", "bot", "A"), ("uC", "bot", "C"),
        ("uAB", "A", "B"), ("uB1", "B", "top"), ("uC1", "C", "top"),
    )
    rels = ((("uA", "uAB", "uB1"), ("uC", "uC1")),) if with_relation else ()
    return FlowPresentation(("bot", "A", "B", "C", "top"), gens, rels)


def oracle_classes(pres: FlowPresentation, a: str, b: str) -> int:
    """Independent congruence count: enumerate all composable words by
    brute force, then close the relation pairs under subword rewriting."""
    arrows = {name: (s, t) for name, s, t in pres.generators}

    def endpoints(word):
        return arrows[word[0]][0], arrows[word[-1]][1]

    words = set()
    frontier = [(name,) for name in arrows]
    while frontier:
        w = frontier.pop()
        if w in words:
            continue
        words.add(w)
        for name in arrows:
            if arrows[name][0] == endpoints(w)[1]:
                frontier.append(w + (name,))
            if arrows[name][1] == endpoints(w)[0]:
                frontier.append((name,) + w)

    rules = list(pres.relations) + [(r, l) for l, r in pres.relations]

    def rewrites(word):
        for lhs, rhs in rules:
            k = len(lhs)
            for i in range(len(word) - k + 1):
                if word[i : i + k] == lhs:
                    yield word[:i] + rhs + word[i + k :]

    target = {w for w in words if endpoints(w) == (a, b)}
    classes = 0
    seen = set()
    for w in sorted(target):
        if w in seen:
            continue
        classes += 1
        queue = [w]
        while queue:
            cur = queue.pop()
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(rewrites(cur))
    return classes


def rescan_closure(pres: FlowPresentation) -> dict:
    """The word-level elaboration that the one-pass closure replaced: list
    every composable word, union the relations, then rescan every word
    against every generator until no union merges two classes.  Maps each
    word to the shortlex-least word of its class."""
    arrows = {name: (s, t) for name, s, t in pres.generators}
    words, frontier = set(), [(name,) for name in arrows]
    while frontier:
        w = frontier.pop()
        words.add(w)
        tgt = arrows[w[-1]][1]
        frontier.extend(w + (h,) for h, (s, _) in arrows.items() if s == tgt)
    uf = UnionFind()
    for w in words:
        uf.add(w)
    for left, right in pres.relations:
        uf.union(left, right)
    changed = True
    while changed:
        changed = False
        for w in words:
            r = uf.find(w)
            if r == w:
                continue
            for h, (s, t) in arrows.items():
                if t == arrows[w[0]][0]:
                    changed |= uf.union((h,) + w, (h,) + r)
                if s == arrows[w[-1]][1]:
                    changed |= uf.union(w + (h,), r + (h,))
    least = {
        root: min(members, key=lambda w: (len(w), w))
        for root, members in uf.classes().items()
    }
    return {w: least[uf.find(w)] for w in words}


@lru_cache(maxsize=None)
def oracle_flows() -> tuple:
    """500 seeded random flows with one to three random relations on each
    pair of states joined by two or more words, then ``flow_of_poset`` of
    100 seeded bounded posets."""
    rng = random.Random(61)
    flows = []
    for _ in range(500):
        free = random_loopless_flow(
            rng, max_states=12, relations=False, max_words=300, max_weight=None
        )
        rels = []
        for pair in free.nonempty_pairs():
            words = free.path_set(*pair)
            if len(words) >= 2:
                rels.extend(tuple(rng.sample(words, 2)) for _ in range(rng.randint(1, 3)))
        pres = free.presentation
        flows.append(Flow(FlowPresentation(pres.states, pres.generators, rels)))
    for _ in range(100):
        flows.append(flow_of_poset(random_bounded_poset(rng)))
    return tuple(flows)


class TestOnePassClosure:
    def test_agrees_with_rescan_closure(self):
        for flow in oracle_flows():
            oracle = rescan_closure(flow.presentation)
            for word, least in oracle.items():
                assert flow.class_of(word) == least
            by_pair: dict = {}
            for least in set(oracle.values()):
                by_pair.setdefault((flow.source(least), flow.target(least)), []).append(least)
            for a, b in product(flow.states, repeat=2):
                reps = sorted(by_pair.get((a, b), ()), key=lambda w: (len(w), w))
                assert flow.path_set(a, b) == tuple(reps)

    def test_deep_generator_cycle_is_loop_error(self):
        # a cycle through 3,000 states: no recursion limit is involved
        n = 3000
        gens = tuple((f"g{i}", f"s{i}", f"s{(i + 1) % n}") for i in range(n))
        with pytest.raises(LoopError):
            Flow(FlowPresentation(tuple(f"s{i}" for i in range(n)), gens))


class TestElaborate:
    def test_two_chain_single_generator(self):
        flow = Flow(FlowPresentation(("p0", "p1"), (("u", "p0", "p1"),)))
        assert flow.path_set("p0", "p1") == (("u",),)
        assert flow.nonempty_pairs() == (("p0", "p1"),)

    def test_two_routes_with_relation_single_class(self):
        pres = two_routes_presentation(with_relation=True)
        assert oracle_classes(pres, "bot", "top") == 1
        assert len(Flow(pres).path_set("bot", "top")) == 1

    def test_two_routes_without_relation_two_classes(self):
        pres = two_routes_presentation(with_relation=False)
        assert oracle_classes(pres, "bot", "top") == 2
        assert len(Flow(pres).path_set("bot", "top")) == 2

    def test_oracle_agreement_random(self):
        rng = random.Random(21)
        for _ in range(30):
            flow = random_loopless_flow(rng, max_states=6, max_words=60)
            pres = flow.presentation
            for a, b in flow.nonempty_pairs():
                assert len(flow.path_set(a, b)) == oracle_classes(pres, a, b)

    def test_generator_cycle_rejected(self):
        pres = FlowPresentation(
            ("x", "y"), (("f", "x", "y"), ("g", "y", "x"))
        )
        with pytest.raises(LoopError):
            Flow(pres)

    def test_self_loop_generator_rejected(self):
        with pytest.raises(LoopError):
            FlowPresentation(("x",), (("f", "x", "x"),))

    def test_non_parallel_relation_rejected(self):
        pres = FlowPresentation(
            ("x", "y", "z"),
            (("f", "x", "y"), ("g", "y", "z")),
            ((("f",), ("g",)),),
        )
        with pytest.raises(NonParallelRelation):
            Flow(pres)

    def test_relation_order_irrelevant(self):
        gens = (
            ("a1", "s", "m1"), ("a2", "m1", "t"),
            ("b1", "s", "m2"), ("b2", "m2", "t"),
            ("c", "s", "t"),
        )
        r1 = ((("a1", "a2"), ("c",)), (("b1", "b2"), ("c",)))
        r2 = tuple(reversed(r1))
        states = ("m1", "m2", "s", "t")
        assert Flow(FlowPresentation(states, gens, r1)) == Flow(
            FlowPresentation(states, gens, r2)
        )

    def test_empty_flow_accepted(self):
        flow = Flow(FlowPresentation((), ()))
        assert flow.states == ()
        assert flow.nonempty_pairs() == ()

    def test_unknown_state_query(self):
        with pytest.raises(UnknownState):
            glob(1).path_set("0", "missing")


class TestStateOrder:
    def test_flow_of_poset_recovers_poset(self):
        assert flow_of_poset(two_routes_poset()).state_order == two_routes_poset()

    def test_glob_two_chain(self):
        order = glob(3).state_order
        assert order.relation() == (("0", "1"),)

    def test_antichain_without_generators(self):
        flow = Flow(FlowPresentation(("a", "b", "c"), ()))
        assert flow.state_order.relation() == ()

    def test_no_self_paths(self):
        rng = random.Random(22)
        for _ in range(20):
            flow = random_loopless_flow(rng, max_states=7)
            for s in flow.states:
                assert flow.path_set(s, s) == ()


class TestFlowOfPoset:
    def test_two_chain(self):
        assert len(flow_of_poset(two_chain()).path_set("p0", "p1")) == 1

    def test_two_routes_eight_singletons(self):
        flow = flow_of_poset(two_routes_poset())
        assert len(flow.nonempty_pairs()) == 8
        assert all(len(flow.path_set(a, b)) == 1 for a, b in flow.nonempty_pairs())

    def test_antichain_no_paths(self):
        assert flow_of_poset(antichain()).nonempty_pairs() == ()

    def test_singletons_random(self):
        rng = random.Random(23)
        for _ in range(20):
            from test_poset import random_poset

            p = random_poset(rng)
            flow = flow_of_poset(p)
            assert set(flow.nonempty_pairs()) == set(p.relation())
            assert all(len(flow.path_set(a, b)) == 1 for a, b in p.relation())


class TestGlob:
    def test_sizes(self):
        assert len(glob(1).path_set("0", "1")) == 1
        assert len(glob(2).path_set("0", "1")) == 2

    def test_glob_one_is_interval_flow(self):
        assert glob(1).is_full_directed_ball()

    def test_invalid(self):
        with pytest.raises(ValueError):
            glob(0)


class TestOpposite:
    def test_glob(self):
        assert len(glob(2).opposite().path_set("1", "0")) == 2

    def test_involution(self):
        flow = flow_of_poset(two_routes_poset())
        assert flow.opposite().opposite() == flow

    def test_matches_opposite_poset(self):
        rng = random.Random(24)
        for _ in range(15):
            from test_poset import random_poset

            p = random_poset(rng)
            left = flow_of_poset(p).opposite()
            right = flow_of_poset(p.opposite())
            for a in p.elements:
                for b in p.elements:
                    assert len(left.path_set(a, b)) == len(right.path_set(a, b))


class TestBallPredicate:
    def test_two_routes_is_ball(self):
        assert flow_of_poset(two_routes_poset()).is_full_directed_ball()

    def test_glob_two_not_ball(self):
        assert not glob(2).is_full_directed_ball()

    def test_diamond_is_ball(self):
        diamond = Poset.from_relations(
            ["b", "x", "y", "t"],
            [("b", "x"), ("b", "y"), ("x", "t"), ("y", "t")],
        )
        flow = flow_of_poset(diamond)
        assert flow.is_full_directed_ball()
        assert len(flow.nonempty_pairs()) == 5

    def test_unbounded_not_ball(self):
        assert not flow_of_poset(antichain()).is_full_directed_ball()


class TestEndpoints:
    def test_two_routes(self):
        flow = flow_of_poset(two_routes_poset())
        assert flow.initial_states() == ("bot",)
        assert flow.final_states() == ("top",)

    def test_fan(self):
        fan = flow_of_poset(
            Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
        )
        assert fan.initial_states() == ("z",)
        assert fan.final_states() == ("a", "b")

    def test_antichain_all_both(self):
        flow = Flow(FlowPresentation(("a", "b"), ()))
        assert flow.initial_states() == ("a", "b")
        assert flow.final_states() == ("a", "b")


class TestComposition:
    def test_associative_exhaustive(self):
        flows = [flow_of_poset(two_routes_poset()), glob(3)]
        rng = random.Random(25)
        flows += [random_loopless_flow(rng, max_states=6) for _ in range(10)]
        for flow in flows:
            pairs = flow.nonempty_pairs()
            for a, b in pairs:
                for b2, c in pairs:
                    if b2 != b:
                        continue
                    for c2, d in pairs:
                        if c2 != c:
                            continue
                        for x, y, z in product(
                            flow.path_set(a, b),
                            flow.path_set(b, c),
                            flow.path_set(c, d),
                        ):
                            assert flow.compose(flow.compose(x, y), z) == flow.compose(
                                x, flow.compose(y, z)
                            )

    def test_composition_closed(self):
        flow = flow_of_poset(two_routes_poset())
        for a, b in flow.nonempty_pairs():
            for b2, c in flow.nonempty_pairs():
                if b2 != b:
                    continue
                for x in flow.path_set(a, b):
                    for y in flow.path_set(b, c):
                        assert flow.compose(x, y) in flow.path_set(a, c)

    def test_incomposable_rejected(self):
        flow = flow_of_poset(two_routes_poset())
        x = flow.path_set("bot", "A")[0]
        with pytest.raises(ValueError):
            flow.compose(x, x)
