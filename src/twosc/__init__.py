"""Toolkit for 2-self-centered graphs (radius = diameter = 2).

Recognition with certificates, the complement-star test for
edge-maximality, bi-independent coverings and generalized complete
bipartite constructions for the triangle-free edge-minimal case, the
star reduction for the triangle case, and an exhaustive small-graph
verification harness tying it all together.
"""

from .canon import are_isomorphic, canonical_graph, canonical_masks
from .core import (
    DistanceProfile,
    EdgeAbsentError,
    EdgePresentError,
    Graph,
    GraphError,
    LoopError,
    MAX_VERTICES,
    VertexLimitError,
    complement,
    connected_components,
    distance_profile,
    edit,
    is_connected,
    is_independent,
    is_star,
    triangles,
)
from .enumeration import (
    ALL_GRAPH_COUNTS,
    CONNECTED_GRAPH_COUNTS,
    GENERATOR_MAX,
    RangeError,
    connected_classes,
    enumerate_connected,
    graph_classes,
)
from .gcb import (
    GcbRoles,
    GcbSpec,
    GcbValidation,
    InvalidGcbSpecError,
    SampleBudgetError,
    SampleRetryError,
    assemble,
    build_gcb,
    decompose_triangle_free,
    expected_edge_count,
    sample_gcb_spec,
    validate_gcb_spec,
)
from .harness import BatteryResult, VerificationReport, render_table, verify_all
from .io import (
    FormatError,
    dot_encode,
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    ingest_graph6,
    read_graph6,
    write_graph6,
)
from .recognition import (
    CriticalTriple,
    MaximalityCertificate,
    MinimalityWitness,
    NotTwoSelfCenteredError,
    TwoScVerdict,
    check_bipartite_proposition,
    condition_verdict,
    critical_triples,
    edge_maximal_by_definition,
    greedy_edge_maximal,
    greedy_edge_minimal,
    is_edge_maximal,
    is_edge_minimal,
    is_two_self_centered,
    metric_two_self_centered,
)
from .reduction import (
    EdgeNotInTriangleError,
    InvalidStepError,
    NoCriticalEndpointError,
    ReductionStep,
    ReductionTrace,
    TriangleClassification,
    TriangleFreeInputError,
    apply_star_procedure,
    classify_edge_minimal_with_triangles,
    critical_partners,
    reduce_to_triangle_free,
    replay_trace,
)
from .sbic import (
    HasTriangleError,
    SbicReport,
    SbicWitness,
    WitnessError,
    construct_sbic,
    verify_sbic,
)

__version__ = "0.1.0"
