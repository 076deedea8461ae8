"""Posets, chain lengths and order complexes.

Chain-length expectations are frozen from the brute-force oracle below
(exhaustive enumeration of chains), not from the implementation under test.
"""

import random
from itertools import combinations, permutations

import pytest

from flowhom.errors import CycleError, NotComparable, UnknownLabel
from flowhom.poset import OrderComplex, Poset
from flowhom.randgen import random_bounded_poset


def two_routes_poset() -> Poset:
    return Poset.from_relations(
        ["bot", "A", "B", "C", "top"],
        [("bot", "A"), ("bot", "C"), ("A", "B"), ("B", "top"), ("C", "top")],
    )


def two_chain() -> Poset:
    return Poset.from_relations(["p0", "p1"], [("p0", "p1")])


def antichain() -> Poset:
    return Poset.from_relations(["a", "b"], [])


def oracle_max_chain(p: Poset, a: str, b: str) -> int:
    """Exhaustive: longest strictly increasing sequence from a to b."""
    inner = [x for x in p.elements if p.lt(a, x) and p.lt(x, b)]
    best = 1 if p.lt(a, b) else 0
    for size in range(1, len(inner) + 1):
        for subset in combinations(inner, size):
            for order in permutations(subset):
                chain = (a, *order, b)
                if all(p.lt(x, y) for x, y in zip(chain, chain[1:])):
                    best = max(best, len(chain) - 1)
    return best


def chains_max_chain(p: Poset) -> dict[tuple[str, str], int]:
    """Brute force over every chain: the most steps of a chain from a to b,
    for each pair that some chain joins."""
    best: dict[tuple[str, str], int] = {}
    for chain in p.chains():
        if len(chain) > 1:
            pair = (chain[0], chain[-1])
            best[pair] = max(best.get(pair, 0), len(chain) - 1)
    return best


def random_poset(rng: random.Random, max_n: int = 6) -> Poset:
    n = rng.randint(1, max_n)
    labels = [f"e{i}" for i in range(n)]
    covers = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return Poset.from_relations(labels, covers)


class TestFromRelations:
    def test_singleton(self):
        p = Poset.from_relations(["a"], [])
        assert p.elements == ("a",)
        assert p.relation() == ()

    def test_two_routes_poset_closure(self):
        p = two_routes_poset()
        # transitive closure adds bot<B, bot<top, A<top
        assert p.relation() == (
            ("A", "B"), ("A", "top"), ("B", "top"), ("C", "top"),
            ("bot", "A"), ("bot", "B"), ("bot", "C"), ("bot", "top"),
        )

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relations(["x", "y"], [("x", "y"), ("y", "x")])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Poset.from_relations(["x"], [("x", "x")])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            Poset.from_relations(["x"], [("x", "y")])

    def test_idempotent_on_own_covers(self):
        p = two_routes_poset()
        again = Poset.from_relations(p.elements, p.covers())
        assert again == p


class TestBounds:
    def test_two_routes_poset_bounded(self):
        assert two_routes_poset().bounds() == ("bot", "top")
        assert two_routes_poset().is_bounded()

    def test_antichain_unbounded(self):
        assert antichain().bounds() is None

    def test_singleton_unbounded(self):
        assert not Poset.from_relations(["a"], []).is_bounded()


class TestMaxChainLength:
    def test_two_routes_values(self):
        p = two_routes_poset()
        assert oracle_max_chain(p, "bot", "top") == 3
        assert p.max_chain_length("bot", "top") == 3
        assert oracle_max_chain(p, "bot", "A") == 1
        assert p.max_chain_length("bot", "A") == 1

    def test_two_chain(self):
        assert two_chain().max_chain_length("p0", "p1") == 1

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            antichain().max_chain_length("a", "b")
        with pytest.raises(NotComparable):
            two_routes_poset().max_chain_length("top", "bot")

    def test_against_oracle_random(self):
        rng = random.Random(42)
        for _ in range(120):
            p = random_poset(rng)
            for a, b in p.relation():
                assert p.max_chain_length(a, b) == oracle_max_chain(p, a, b)

    def test_table_against_all_chains(self):
        # the table is built once per poset; check it on bounded posets and
        # on their strict upper sets, which are posets of their own
        rng = random.Random(44)
        checked = 0
        for _ in range(60):
            p = random_bounded_poset(rng, levels=5)
            for q in (p, *(p.strict_upper_set(a) for a in p.elements)):
                brute = chains_max_chain(q)
                assert set(brute) == set(q.relation())
                for a, b in q.relation():
                    assert q.max_chain_length(a, b) == brute[(a, b)]
                assert q.longest_chains() == brute
                assert q.height() == max((len(c) for c in q.chains()), default=0)
                checked += 1
        assert checked >= 300

    def test_table_keeps_errors(self):
        p = random_bounded_poset(random.Random(45), levels=5)
        bottom, top = p.bounds()
        p.max_chain_length(bottom, top)  # the table exists from here on
        incomparable = [
            (a, b) for a in p.elements for b in p.elements
            if a != b and not p.lt(a, b) and not p.lt(b, a)
        ]
        assert incomparable
        for a, b in incomparable[:5] + [(top, bottom), (bottom, bottom)]:
            with pytest.raises(NotComparable):
                p.max_chain_length(a, b)
        with pytest.raises(UnknownLabel):
            p.max_chain_length(bottom, "missing")
        with pytest.raises(UnknownLabel):
            p.max_chain_length("missing", top)

    def test_bounds_and_superadditivity(self):
        rng = random.Random(43)
        for _ in range(120):
            p = random_poset(rng)
            for a, b in p.relation():
                interval = sum(1 for x in p.elements if p.lt(a, x) and p.leq(x, b))
                assert 1 <= p.max_chain_length(a, b) <= interval
            for a, b in p.relation():
                for c in p.above(b):
                    assert (
                        p.max_chain_length(a, b) + p.max_chain_length(b, c)
                        <= p.max_chain_length(a, c)
                    )


class TestUpperLowerSets:
    def test_two_routes_upper_set(self):
        up = two_routes_poset().strict_upper_set("bot")
        assert up.elements == ("A", "B", "C", "top")
        assert up.relation() == (("A", "B"), ("A", "top"), ("B", "top"), ("C", "top"))

    def test_top_gives_empty(self):
        assert len(two_routes_poset().strict_upper_set("top")) == 0

    def test_two_chain_singleton(self):
        assert two_chain().strict_upper_set("p0").elements == ("p1",)

    def test_lower_is_opposite_upper(self):
        p = two_routes_poset()
        assert p.strict_lower_set("top") == p.opposite().strict_upper_set("top").opposite()

    def test_unknown(self):
        with pytest.raises(UnknownLabel):
            two_routes_poset().strict_upper_set("nope")


class TestOrderComplex:
    def test_two_routes_upper_complex(self):
        oc = two_routes_poset().strict_upper_set("bot").order_complex()
        assert len(oc.of_dim(0)) == 4
        assert oc.of_dim(1) == (("A", "B"), ("A", "top"), ("B", "top"), ("C", "top"))
        assert oc.of_dim(2) == (("A", "B", "top"),)

    def test_antichain_two_points(self):
        oc = antichain().order_complex()
        assert len(oc) == 2 and oc.dimension == 0

    def test_three_chain_full_simplex(self):
        p = Poset.from_relations(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert len(p.order_complex()) == 7  # all faces of a 2-simplex

    def test_face_closed(self):
        rng = random.Random(44)
        for _ in range(40):
            oc = random_poset(rng).order_complex()
            for s in oc.simplices:
                if len(s) > 1:
                    for f in OrderComplex.faces(s):
                        assert f in oc

    def test_dimension_bound(self):
        rng = random.Random(45)
        for _ in range(40):
            p = random_poset(rng)
            assert p.order_complex().dimension < len(p)


class TestOpposite:
    def test_two_chain(self):
        assert two_chain().opposite().relation() == (("p1", "p0"),)

    def test_involution_and_bound_swap(self):
        p = two_routes_poset()
        assert p.opposite().opposite() == p
        assert p.opposite().bounds() == ("top", "bot")

    def test_antichain_fixed(self):
        assert antichain().opposite() == antichain()


class TestHeight:
    def test_examples(self):
        assert two_routes_poset().height() == 4
        assert antichain().height() == 1
        assert Poset.from_relations([], []).height() == 0
