#!/usr/bin/env python3
"""Refinement of observation, and what it must not change.

Replacing a single transition by a two-step chain (or a whole embedded ball
by a finer one) models observing the same system at a finer granularity.
The refined flow has new states, but every branching/merging invariant must
survive: old states keep their space homology, new states have contractible
spaces, and the graded tables agree.
"""

import random

from flowhom import (
    BallEmbedding,
    HomologyTable,
    MINUS,
    Poset,
    TMorphism,
    check_invariance,
    glob,
    refine_pushout,
    validate_t_morphism,
)
from flowhom.randgen import random_refinement_instance

two = Poset.from_relations(["p0", "p1"], [("p0", "p1")])
three = Poset.from_relations(["q0", "qm", "q1"], [("q0", "qm"), ("qm", "q1")])
pattern = TMorphism(two, three, (("p0", "q0"), ("p1", "q1")))
print("the simplest refinement pattern (one step into two):",
      validate_t_morphism(pattern)[0])

# subdividing one branch of a two-branch flow: H_1 = Z must survive
g2 = glob(2, ("s0", "s1"))
embedding = BallEmbedding(
    ball=two,
    host=g2,
    state_map=(("p0", "s0"), ("p1", "s1")),
    path_choice=((("p0", "p1"), ("g1",)),),
)
result = refine_pushout(g2, pattern, embedding)
print("refined states:", result.refined.states, "new:", sorted(result.new_states))
print("path classes s0 -> s1 after refining one branch:",
      len(result.refined.path_set("s0", "s1")))
print("H_1 before:", HomologyTable(g2, MINUS).group(1),
      " after:", HomologyTable(result.refined, MINUS).group(1))
print()

report = check_invariance(g2, result)
for line in report.lines():
    print(line)
print("verdict:", "pass" if report.passed else "fail")
print()

# the same machinery on randomly generated hosts and refinements
rng = random.Random(0)
for i in range(5):
    host, pat, emb = random_refinement_instance(rng)
    res = refine_pushout(host, pat, emb)
    rep = check_invariance(host, res)
    print(f"random instance {i}: host {len(host.states)} states"
          f" -> refined {len(res.refined.states)},"
          f" invariance {'pass' if rep.passed else 'FAIL'}")

print()
print("the same flows are scriptable through the document format, e.g.:")
print("  flowhom check-invariance demos/documents/two_routes.fhm \\")
print("      --flow FP --ball EDGE --tmap SUBDIV")
