#!/usr/bin/env python3
"""The degree structure that makes levelwise computation legitimate.

Simplices of the index complex are graded by summing squared longest-chain
lengths along their segments.  Faces that keep the last vertex (they act by
composing paths) strictly raise the degree; the drop-last face (a plain
projection) strictly lowers it; every arrow factors uniquely as drops then
compositions.  Latching objects measure how much of a vertex set is already
glued in from finer simplices, and they decompose as pushout products of
the per-segment latching maps.
"""

from flowhom import (
    MINUS,
    BranchDiagram,
    Flow,
    FlowPresentation,
    Poset,
    audit_reedy,
    check_latching_injective,
    flow_of_poset,
    latching_object,
    matching_category,
    reedy_structure,
    verify_latching_formula,
)

routes = Poset.from_relations(
    ["bot", "A", "B", "C", "top"],
    [("bot", "A"), ("bot", "C"), ("A", "B"), ("B", "top"), ("C", "top")],
)
structure = reedy_structure(routes, "bot")

print("degrees of the index simplices above bot:")
for s in structure.index.simplices:
    print(f"  d({', '.join(s)}) = {structure.degree(s)}")
print()

print("the degree axioms and unique factorization, checked exhaustively:")
problems = audit_reedy(structure)
print("  violations:", problems if problems else "none")
print()

arrow = (("A", "B", "top"), ("B",))
minus, plus = structure.factorize(arrow)
print(f"factorizing {arrow[0]} -> {arrow[1]}:")
print(f"  drop-last part : {minus[0]} -> {minus[1]}")
print(f"  composing part : {plus[0]} -> {plus[1]}")
print("matching tower of (A, B, top):",
      matching_category(structure, ("A", "B", "top")).objects)
print()

# latching objects on the two-route flow
flow = flow_of_poset(routes)
diagram = BranchDiagram(flow, "bot", MINUS)
print("latching objects at bot:")
for s in diagram.simplices:
    latch = latching_object(diagram, s)
    tag = "injective" if latch.injective else "NOT injective"
    print(f"  L({', '.join(s)}): {len(latch)} class(es), map {tag}")
print("the failure at (top) is real: the relation glues the two routes, so")
print("this flow is not presented freely and cofibrancy is lost there.")
print()

gens = tuple((f"{a}>{b}", a, b) for a, b in routes.covers())
free = Flow(FlowPresentation(routes.elements, gens))
free_diagram = BranchDiagram(free, "bot", MINUS)
print("same covers presented freely (no relation):",
      "all latching maps injective" if check_latching_injective(free_diagram)
      else "failure")
print()

print("latching map == pushout product of segment maps, at every simplex:",
      all(verify_latching_formula(diagram, s) for s in diagram.simplices))
