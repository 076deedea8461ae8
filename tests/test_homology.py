"""Smith normal form, chain complexes, nerves.

The Smith normal form is checked against sympy's implementation as an
independent oracle on random matrices; homology values for the small named
complexes are frozen from hand reduction (hollow triangle, two points) or
from the classical answer (the 6-vertex projective plane).
"""

import random
from itertools import combinations

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from flowhom.errors import CyclicCategory, DegreeOutOfRange
from flowhom.homology import (
    ChainComplex,
    HomologyGroup,
    LoopFreeCategory,
    ZERO_GROUP,
    complex_of_order_complex,
    core,
    homology,
    homology_ranks,
    invariant_factors,
    nerve,
    poset_category,
)
from flowhom.poset import Poset

from test_poset import random_poset


def sympy_invariant_factors(rows):
    if not rows or not rows[0]:
        return []
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
    return [int(d) for d in diag if d != 0]


def complex_from_faces(faces) -> ChainComplex:
    """Simplicial chain complex of the closure of the given top faces,
    oriented by sorted vertex order."""
    by_dim: dict[int, set] = {}
    for face in faces:
        face = tuple(sorted(face))
        for k in range(1, len(face) + 1):
            for sub in combinations(face, k):
                by_dim.setdefault(k - 1, set()).add(sub)
    levels = [sorted(by_dim[d]) for d in sorted(by_dim)]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    boundaries = []
    for n in range(1, len(levels)):
        cols = []
        for s in levels[n]:
            col = {}
            for i in range(len(s)):
                row = index[n - 1][s[:i] + s[i + 1 :]]
                col[row] = col.get(row, 0) + (-1) ** i
            cols.append(col)
        boundaries.append(cols)
    return ChainComplex([len(level) for level in levels], boundaries)


# 6-vertex triangulation of the projective plane: every edge lies in
# exactly two of these triangles, V - E + F = 6 - 15 + 10 = 1.
RP2_FACES = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]

HOLLOW_TRIANGLE = ChainComplex(
    [3, 3],
    [[[-1, -1, 0], [1, 0, -1], [0, 1, 1]]],
)


class TestInvariantFactors:
    def test_diagonal(self):
        assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]

    def test_zero(self):
        assert invariant_factors([[0, 0], [0, 0]]) == []
        assert invariant_factors([]) == []

    def test_divisibility_normalization(self):
        assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_against_sympy_random(self):
        rng = random.Random(7)
        for _ in range(250):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            assert invariant_factors(rows) == sympy_invariant_factors(rows)

    def test_against_sympy_sparse_unit_heavy(self):
        rng = random.Random(8)
        for _ in range(60):
            m = rng.randint(4, 12)
            n = rng.randint(4, 12)
            rows = [
                [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(m)
            ]
            assert invariant_factors(rows) == sympy_invariant_factors(rows)

    def test_large_entries_stay_exact(self):
        rows = [[10**20, 1], [1, 10**20]]
        assert invariant_factors(rows) == [1, 10**40 - 1]

    def test_against_sympy_unit_free(self):
        # no entry is +-1, so every pivot is a least-magnitude one whose
        # remainders drive further rounds
        rng = random.Random(9)
        for k in range(80):
            m = rng.randint(1, 14)
            n = rng.randint(1, 14)
            values = [0, 0, 2, -3, 4, 6, -9]
            if k % 8 == 0:
                values.append(rng.randint(2, 10**12))
            rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
            assert invariant_factors(rows) == sympy_invariant_factors(rows)


class TestHomologyGroup:
    def test_str_forms(self):
        assert str(ZERO_GROUP) == "0"
        assert str(HomologyGroup(1)) == "Z"
        assert str(HomologyGroup(2, (2, 4))) == "Z^2 (+) Z/2 (+) Z/4"
        assert HomologyGroup(1, (2,)).compact() == "1;2"

    def test_direct_sum_recombines(self):
        two, three = HomologyGroup(0, (2,)), HomologyGroup(0, (3,))
        assert two.direct_sum(three) == HomologyGroup(0, (6,))
        assert two.direct_sum(two) == HomologyGroup(0, (2, 2))
        twelve, eighteen = HomologyGroup(0, (12,)), HomologyGroup(0, (18,))
        assert twelve.direct_sum(eighteen) == HomologyGroup(0, (6, 36))
        four, six = HomologyGroup(0, (4,)), HomologyGroup(0, (6,))
        assert four.direct_sum(six) == HomologyGroup(0, (2, 12))
        # every pair needs its own gcd/lcm step
        ten, nine = HomologyGroup(0, (10,)), HomologyGroup(0, (9,))
        assert four.direct_sum(six, ten) == HomologyGroup(0, (2, 2, 60))
        assert nine.direct_sum(six, four, ten) == HomologyGroup(0, (2, 6, 180))
        # a large prime coefficient must not need factoring
        mersenne = 2**61 - 1
        assert HomologyGroup(0, (3,)).direct_sum(
            HomologyGroup(1, (mersenne,))
        ) == HomologyGroup(1, (3 * mersenne,))

    def test_direct_sum_against_sympy(self):
        rng = random.Random(10)
        for _ in range(100):
            torsion = [rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 15, 30])
                       for _ in range(rng.randint(1, 6))]
            diagonal = [[t if i == j else 0 for j in range(len(torsion))]
                        for i, t in enumerate(torsion)]
            expected = [t for t in sympy_invariant_factors(diagonal) if t > 1]
            total = ZERO_GROUP.direct_sum(*(HomologyGroup(0, (t,)) for t in torsion))
            assert total == HomologyGroup(0, tuple(expected))

    def test_validation(self):
        with pytest.raises(ValueError):
            HomologyGroup(0, (2, 3))  # not a divisibility chain
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(-1)
        with pytest.raises(ValueError):
            HomologyGroup(0, (0, 5))  # zero before a divisibility test


class TestChainComplex:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex([2, 2], [[[1, 0], [0, 1], [0, 0]]])

    def test_nonzero_composite_rejected(self):
        with pytest.raises(ValueError):
            ChainComplex([1, 1, 1], [[[1]], [[1]]])

    def test_sparse_and_dense_inputs_agree(self):
        sparse = ChainComplex([3, 3], [[{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]])
        assert sparse.boundary(1) == HOLLOW_TRIANGLE.boundary(1)

    def test_hollow_triangle(self):
        assert homology(HOLLOW_TRIANGLE, 0) == HomologyGroup(1)
        assert homology(HOLLOW_TRIANGLE, 1) == HomologyGroup(1)
        assert homology(HOLLOW_TRIANGLE, 0, reduced=True) == ZERO_GROUP

    def test_empty_complex(self):
        empty = ChainComplex([], [])
        assert homology(empty, 0) == ZERO_GROUP
        assert homology(empty, 0, reduced=True) == ZERO_GROUP

    def test_two_points_reduced(self):
        two = ChainComplex([2], [])
        assert homology(two, 0) == HomologyGroup(2)
        assert homology(two, 0, reduced=True) == HomologyGroup(1)

    def test_degree_handling(self):
        with pytest.raises(DegreeOutOfRange):
            homology(HOLLOW_TRIANGLE, -1)
        assert homology(HOLLOW_TRIANGLE, 5) == ZERO_GROUP

    def test_projective_plane_torsion(self):
        rp2 = complex_from_faces(RP2_FACES)
        assert rp2.dims == (6, 15, 10)
        assert homology_ranks(rp2) == [
            HomologyGroup(1),
            HomologyGroup(0, (2,)),
            ZERO_GROUP,
        ]

    def test_basis_permutation_invariance(self):
        rng = random.Random(11)
        base = complex_from_faces(RP2_FACES)
        answers = homology_ranks(base)
        for _ in range(8):
            perm1 = list(range(base.dims[1]))
            rng.shuffle(perm1)
            d1 = base.boundary(1)
            d2 = base.boundary(2)
            new_d1 = [[row[perm1[j]] for j in range(len(perm1))] for row in d1]
            new_d2 = [d2[perm1[i]] for i in range(len(perm1))]
            shuffled = ChainComplex(base.dims, [new_d1, new_d2])
            assert homology_ranks(shuffled) == answers


class TestOrderComplexChains:
    def test_bounded_upper_sets_are_acyclic(self):
        # intervals ]a, top] have a greatest element, so their order
        # complexes are cones: reduced homology vanishes everywhere
        rng = random.Random(12)
        seen = 0
        while seen < 25:
            p = random_poset(rng)
            if not p.is_bounded():
                continue
            seen += 1
            top = p.bounds()[1]
            for a in p.elements:
                if a == top:
                    continue
                c = complex_of_order_complex(p.strict_upper_set(a).order_complex())
                assert all(g.is_zero for g in homology_ranks(c, reduced=True))

    def test_antichain(self):
        c = complex_of_order_complex(
            Poset.from_relations(["a", "b"], []).order_complex()
        )
        assert homology(c, 0, reduced=True) == HomologyGroup(1)

    def test_three_chain_contractible(self):
        p = Poset.from_relations(["x", "y", "z"], [("x", "y"), ("y", "z")])
        c = complex_of_order_complex(p.order_complex())
        assert all(g.is_zero for g in homology_ranks(c, reduced=True))


class TestLoopFreeCategory:
    def test_rejects_loops_and_cycles(self):
        with pytest.raises(CyclicCategory):
            LoopFreeCategory(["a"], {"f": ("a", "a")})
        with pytest.raises(CyclicCategory):
            LoopFreeCategory(
                ["a", "b"],
                {"f": ("a", "b"), "g": ("b", "a")},
                lambda f, g: f,
            )
        # a -> b -> c -> a, with the composites a -> c, b -> a and c -> b
        pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("b", "a"), ("c", "b")]
        with pytest.raises(CyclicCategory):
            LoopFreeCategory(["a", "b", "c"], {f: f for f in pairs})

    def test_rejects_missing_composites(self):
        with pytest.raises(ValueError):
            LoopFreeCategory(
                ["a", "b", "c"], {"f": ("a", "b"), "g": ("b", "c")}, lambda f, g: "h"
            )
        # a < b < c without the arrow (a, c)
        with pytest.raises(ValueError, match="not an arrow"):
            LoopFreeCategory(["a", "b", "c"], {("a", "b"): ("a", "b"), ("b", "c"): ("b", "c")})

    def test_rejects_a_composite_with_wrong_endpoints(self):
        arrows = {"f": ("a", "b"), "g": ("b", "c"), "h": ("a", "c")}
        with pytest.raises(ValueError, match="not an arrow"):
            LoopFreeCategory(["a", "b", "c"], arrows, lambda f, g: "f")

    def test_rejects_a_non_associative_rule(self):
        # (f;g);h is k1 but f;(g;h) is k2, two parallel arrows a -> d
        arrows = {
            "f": ("a", "b"), "g": ("b", "c"), "h": ("c", "d"),
            "fg": ("a", "c"), "gh": ("b", "d"), "k1": ("a", "d"), "k2": ("a", "d"),
        }
        rule = {("f", "g"): "fg", ("g", "h"): "gh", ("fg", "h"): "k1", ("f", "gh"): "k2"}
        with pytest.raises(ValueError, match="associative"):
            LoopFreeCategory(["a", "b", "c", "d"], arrows, lambda f, g: rule[(f, g)])

    def test_nerve_discrete(self):
        c = nerve(LoopFreeCategory(["a", "b"], {}))
        assert c.dims == (2,)
        assert homology(c, 0) == HomologyGroup(2)

    def test_nerve_two_chain_is_interval(self):
        p = Poset.from_relations(["p0", "p1"], [("p0", "p1")])
        c = nerve(poset_category(p))
        assert homology(c, 0) == HomologyGroup(1)
        assert homology(c, 1) == ZERO_GROUP

    def test_nerve_matches_order_complex_on_posets(self):
        rng = random.Random(13)
        for _ in range(25):
            p = random_poset(rng, max_n=5)
            via_nerve = homology_ranks(nerve(poset_category(p)))
            via_chains = homology_ranks(
                complex_of_order_complex(p.order_complex())
            )
            top = max(len(via_nerve), len(via_chains))
            for n in range(top):
                left = via_nerve[n] if n < len(via_nerve) else ZERO_GROUP
                right = via_chains[n] if n < len(via_chains) else ZERO_GROUP
                assert left == right


class TestCore:
    def test_chain_collapses_to_its_top(self):
        # p0 -> p1 is initial among the arrows out of p0, so p0 goes, then p1
        p = Poset.from_relations(["p0", "p1", "p2"], [("p0", "p1"), ("p1", "p2")])
        assert core(poset_category(p)).objects == ("p2",)

    def test_crown_has_no_beat_object(self):
        # x0, x1 < y0, y1: the minimal finite model of the circle
        crown = Poset.from_relations(
            ["x0", "x1", "y0", "y1"],
            [("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")],
        )
        category = poset_category(crown)
        assert core(category) is category
        assert homology(nerve(category), 1) == HomologyGroup(1)

    def test_discrete_category_is_its_own_core(self):
        category = LoopFreeCategory(["a", "b"], {})
        assert core(category) is category

    def test_parallel_arrows_are_not_beat(self):
        # two arrows a -> b: the nerve is a circle, and neither end is beat
        category = LoopFreeCategory(["a", "b"], {"f": ("a", "b"), "g": ("a", "b")})
        assert core(category) is category
        assert homology(nerve(category), 1) == HomologyGroup(1)

    def test_down_beat_object(self):
        # a is tested first and has no arrow out; b -> a is terminal among
        # the arrows into a, so a goes
        category = poset_category(Poset.from_relations(["a", "b"], [("b", "a")]))
        assert core(category).objects == ("b",)

    def test_matches_nerve_on_random_posets(self):
        rng = random.Random(14)
        for _ in range(40):
            category = poset_category(random_poset(rng, max_n=7))
            reduced = core(category)
            assert set(reduced.objects) <= set(category.objects)
            full = homology_ranks(nerve(category))
            small = homology_ranks(nerve(reduced))
            assert small == full[: len(small)]
            assert all(g.is_zero for g in full[len(small):])
