"""Branching and merging homology of finite loopless flows.

The library models higher-dimensional automata as flows with discrete path
spaces, computes their branching/merging spaces and homology groups, audits
the combinatorial structure that makes those computations valid (degree
functions, unique factorizations, latching objects, cube colimits), and
checks that homology is invariant under refinement of observation.
"""

from .branching import (
    MINUS,
    PLUS,
    BranchDiagram,
    GermSpace,
    HomologyTable,
    SpaceHomology,
    branch_diagram,
    branch_space_homology,
    colimit_matches_germ_fiber,
    diagram_colimit,
    extension_category,
    final_subdiagram_check,
    germ_space,
    homology_table,
    restricted_subcategory,
)
from .flows import Flow, FlowPresentation, elaborate, flow_of_poset, glob, opposite_flow
from .homology import (
    ChainComplex,
    HomologyGroup,
    LoopFreeCategory,
    complex_of_order_complex,
    homology,
    homology_ranks,
    invariant_factors,
    nerve,
    poset_category,
)
from .poset import OrderComplex, Poset
from .reedy import (
    CubeDiagram,
    ReedyStructure,
    SetMap,
    audit_reedy,
    binary_pushout_product,
    check_latching_injective,
    factorize,
    flatten_pairs,
    iterated_pushout_product,
    latching_object,
    matching_category,
    pushout_product,
    reedy_structure,
    same_fibers,
    verify_latching_formula,
)
from .refine import (
    BallEmbedding,
    InvarianceReport,
    RefinementResult,
    TMorphism,
    check_invariance,
    refine_pushout,
    surrounded,
    validate_t_morphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
