"""Exact verification toolkit for Hamiltonicity of balanced k-partite graphs.

The package computes the sharp minimum-degree threshold, constructs every
extremal family witnessing its tightness, decides Hamiltonicity exactly at
desk scale, and runs exhaustive/randomized verification sweeps that emit
machine-readable reports.
"""

__version__ = "0.1.0"

from .graphs import (
    CycleCertificate,
    GraphError,
    KPartiteGraph,
    SizeGuardError,
    build_graph,
    complete_kpartite,
    connected_components,
    decode,
    degree_between,
    encode,
    export_dot,
    graph6_decode,
    graph6_encode,
    independence_number,
    induced_bipartite,
    is_independent,
    maximum_independent_set,
    vertex_connectivity,
)
from .thresholds import (
    FactReport,
    ThresholdProfile,
    cfgjl_bound,
    check_appendix_facts,
    check_domcycle_threshold,
    check_eq4_identity,
    classify_rounding,
    classify_rounding_by_congruence,
    is_exception,
    required_degree,
    scan_domcycle_threshold,
    scan_eq4_identity,
    theorem_threshold,
)
from .families import (
    FamilySpec,
    build_F2,
    build_family_F,
    build_family_F1,
    build_family_F3,
    default_sizes,
    recognize,
)
from .solver import (
    BipartiteDegreeOne,
    ExhaustiveSearch,
    IndependentSetTooLarge,
    SmallCut,
    enumerate_longest_cycles,
    find_hamiltonian_cycle,
    longest_cycle,
    non_hamiltonicity_witness,
    verify_cycle,
    witness_certifies,
)
from .conditions import (
    SuccessorProfile,
    check_domcycle_lemma,
    chvatal_bipartite_condition,
    is_strongly_dominating,
    successor_profile,
)
from .harness import (
    VerificationReport,
    characterization_check,
    exhaustive_verify,
    facts_report,
    sample_verify,
    tightness_scan,
)
