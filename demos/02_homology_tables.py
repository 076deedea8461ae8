#!/usr/bin/env python3
"""Graded branching and merging homology of small flows.

Degree 0 counts final (branching) or initial (merging) states; degree 1
sees branchings that never re-merge; higher degrees see higher-dimensional
separation between execution paths.  Merging homology of a flow is
branching homology of the opposite flow.
"""

from flowhom import (
    MINUS,
    PLUS,
    HomologyTable,
    Poset,
    flow_of_poset,
    glob,
)


def show(name, flow):
    print(name)
    for sign, mark in ((MINUS, "-"), (PLUS, "+")):
        table = HomologyTable(flow, sign)
        groups = "  ".join(
            f"H_{n}^{mark}={table.group(n)}" for n in range(table.max_degree + 1)
        )
        print(f"  {groups}")
    print()


# a full directed ball: one path class per comparable pair; the homology is
# that of a single process with no real branching
routes = Poset.from_relations(
    ["bot", "A", "B", "C", "top"],
    [("bot", "A"), ("bot", "C"), ("A", "B"), ("B", "top"), ("C", "top")],
)
show("two-route ball (routes identified)", flow_of_poset(routes))

# a fan: one initial state, two final states that never re-merge; the
# branching shows up in degree 1
fan = Poset.from_relations(["z", "a", "b"], [("z", "a"), ("z", "b")])
show("fan z -> {a, b}", flow_of_poset(fan))

# two parallel transitions between the same endpoints: same degree-1 story
# from the merging side too
show("two parallel transitions", glob(2))

# duality in action
flow = flow_of_poset(fan)
assert HomologyTable(flow, PLUS).same_groups(
    HomologyTable(flow.opposite(), MINUS)
)
print("merging homology of the fan == branching homology of the opposite fan")
