"""Metric-location toolkit for pseudotrees.

Computes nine location parameters of paths, cycles, trees and unicyclic
graphs through closed forms, certified intervals and brute-force oracles,
plus an exhaustive corpus-verification harness.
"""

from .closed_form import (
    closed_result,
    compute_parameter,
    ddim_closed,
    dim2_closed,
    dim_closed,
    dimk_closed,
    dmd_closed,
    edim_closed,
    ldim_closed,
    mdim_closed,
    oracle_result,
    sdim_closed,
    sdim_even_fast,
    sdim_sr_formula,
)
from .corpus import (
    CorpusSpec,
    VerificationRecord,
    enumerate_trees,
    enumerate_unicyclic,
    random_pseudotree,
    tree_canonical_form,
    tree_canonical_key,
    unicyclic_canonical_form,
    unicyclic_canonical_key,
    verify_corpus,
    verify_graph,
)
from .errors import (
    Disconnected,
    DuplicateEdge,
    KOutOfRange,
    MalformedGraph6,
    NotPseudotree,
    PseudolocError,
    SelfLoop,
    SizeCapExceeded,
    VertexOutOfRange,
)
from .graph import (
    Graph,
    distance_matrix,
    encode_graph6,
    from_edge_list,
    hanging_trees,
    kept,
    parse_edgelist,
    parse_graph6,
)
from .resolvers import (
    PARAMETER_NAMES,
    ParameterResult,
    brute_force_dimension,
    cover_problem,
    is_locating_set,
    k_dimensional_value,
    lex_first_cover,
)
from .structure import (
    FamilyKind,
    PseudotreeProfile,
    StrongResolvingGraph,
    boundary_and_sr_graph,
    classify,
    domination_number,
    independence_number,
    profile,
    profile_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
