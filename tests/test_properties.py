"""Hypothesis property tests for the structural invariants.

These complement the seeded suites: hypothesis explores the input space
adversarially (shrinking counterexamples), while the seeded suites pin the
reproducible acceptance runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from flowhom.branching import MINUS, BranchDiagram, colimit_matches_germ_fiber
from flowhom.flows import Flow, FlowPresentation
from flowhom.homology import invariant_factors
from flowhom.poset import Poset


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    labels = [f"e{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=8) if pairs else st.just([]))
    return Poset.from_relations(labels, covers)


@st.composite
def small_flows(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    states = [f"s{i}" for i in range(n)]
    pairs = [(states[i], states[j]) for i in range(n) for j in range(i + 1, n)]
    arcs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7))
    gens = tuple((f"g{k}", a, b) for k, (a, b) in enumerate(arcs))
    free = Flow(FlowPresentation(states, gens))
    rels = []
    for pair in free.nonempty_pairs():
        classes = free.path_set(*pair)
        if len(classes) >= 2 and draw(st.booleans()):
            rels.append((classes[0], classes[1]))
    return Flow(FlowPresentation(states, gens, tuple(rels)))


@given(posets())
@settings(max_examples=60, deadline=None)
def test_opposite_is_involution(p):
    assert p.opposite().opposite() == p


@given(posets())
@settings(max_examples=60, deadline=None)
def test_chain_lengths_superadditive(p):
    for a, b in p.relation():
        for c in p.above(b):
            assert (
                p.max_chain_length(a, b) + p.max_chain_length(b, c)
                <= p.max_chain_length(a, c)
            )


@given(posets())
@settings(max_examples=40, deadline=None)
def test_order_complex_closed_under_faces(p):
    oc = p.order_complex()
    for s in oc.simplices:
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            assert not face or face in oc


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=120, deadline=None)
def test_invariant_factors_match_sympy(rows):
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    expected = [
        int(abs(snf[i, i]))
        for i in range(min(snf.rows, snf.cols))
        if snf[i, i] != 0
    ]
    assert invariant_factors(rows) == expected


@given(small_flows())
@settings(max_examples=40, deadline=None)
def test_colimit_computes_germs(flow):
    for state in flow.states:
        assert colimit_matches_germ_fiber(BranchDiagram(flow, state, MINUS))


@given(small_flows())
@settings(max_examples=30, deadline=None)
def test_composition_endpoints_respected(flow):
    pairs = flow.nonempty_pairs()
    for a, b in pairs:
        assert flow.path_set(a, a) == ()
        for b2, c in pairs:
            if b2 != b:
                continue
            for x in flow.path_set(a, b):
                for y in flow.path_set(b, c):
                    z = flow.compose(x, y)
                    assert flow.source(z) == a and flow.target(z) == c
