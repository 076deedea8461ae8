#!/usr/bin/env python3
"""Branching spaces three ways, on the classic two-route example.

The poset has two routes from bottom to top, one of them two steps long:

        A --> B
       /       \\
    bot         top
       \\       /
        C ----+

We compute the space of "germs of paths leaving a state" (1) directly as a
universal quotient, (2) as the colimit of a diagram of path-set products,
and (3) up to homotopy, via the nerve of the extension category E_a.
Along the way we meet the counterexample that motivates the whole setup:
restricting the diagram to its two lowest levels changes the homotopy type
to a circle.
"""

from flowhom import (
    MINUS,
    BranchDiagram,
    Poset,
    branch_space_homology,
    diagram_colimit,
    flow_of_poset,
    germ_space,
    homology,
    nerve,
    restricted_subcategory,
)

poset = Poset.from_relations(
    ["bot", "A", "B", "C", "top"],
    [("bot", "A"), ("bot", "C"), ("A", "B"), ("B", "top"), ("C", "top")],
)
flow = flow_of_poset(poset)

print("state order:", poset.relation())
print("path classes per pair:",
      {pair: len(flow.path_set(*pair)) for pair in flow.nonempty_pairs()})
print()

# 1. the germ quotient: identify every path with all of its extensions
germs = germ_space(flow, MINUS)
for state in flow.states:
    fiber = germs.fiber(state)
    print(f"germs leaving {state}: {len(fiber)} class(es)")
print("(all four paths leaving bot extend into the same maximal class)")
print()

# 2. the same space as a diagram colimit over the order complex of the
#    states strictly above bot
diagram = BranchDiagram(flow, "bot", MINUS)
print("index simplices above bot:", diagram.simplices)
print("vertex set over (A, B, top):", diagram.vertex_set(("A", "B", "top")))
print("colimit size:", len(diagram_colimit(diagram)), "(must match the germ count)")
print()

# 3. the homotopy-correct version: nerve of the extension category E_a
for state in flow.states:
    h = branch_space_homology(flow, state, MINUS)
    if h.empty:
        print(f"space at {state}: EMPTY (no paths leave the top)")
    else:
        shape = ", ".join(str(h.reduced_group(n)) for n in range(h.max_degree + 1))
        print(f"space at {state}: reduced homology [{shape}]  (contractible)")
print()

# The trap: the colimit is already computed by the two lowest levels of the
# diagram (vertices and edges), but that truncation is NOT homotopy-correct:
# its nerve is a circle, not a point.
category = restricted_subcategory(diagram)
complex_ = nerve(category)
print(f"two-level subcategory: {len(category.objects)} objects,"
      f" {len(category.arrows)} arrows")
print("its nerve has H_0 =", homology(complex_, 0), " H_1 =", homology(complex_, 1))
print("-> a circle: gluing only along edges leaves an unfilled loop")
