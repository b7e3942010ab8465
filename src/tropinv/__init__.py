"""Exact invariants, measures and Green's functions of polarized metric graphs.

A polarized metric graph is a connected multigraph with positive rational
edge lengths and a non-negative integer weight q on each vertex.  The library
computes, all in exact rational arithmetic: effective resistances, the
canonical and admissible measures, the Arakelov-Green function, the weight-one
invariants delta, epsilon, phi and psi, node-count identities for
hyperelliptic degenerations, the genus-two catalog with its closed forms, and
the recovery of phi as a multivariate rational function; a quadrature oracle
certifies the exact engine numerically.
"""

from .errors import (
    ArityMismatch,
    CrosscheckFailure,
    DenominatorZero,
    DisconnectedGraph,
    FloatOverflow,
    GenusMismatch,
    GenusZero,
    InconsistentCounts,
    LengthMismatch,
    NonPositiveLength,
    OffsetOutOfRange,
    ParseError,
    ProfileSampleMismatch,
    RankDeficient,
    TropinvError,
    UnknownPoint,
    ValidationFailure,
    ValueTooLarge,
)
from .graphs import (
    Divisor,
    Edge,
    EdgePoint,
    PolarizedMetricGraph,
    Vertex,
    VertexPoint,
    at_vertex,
    canonical_divisor,
    genus,
    graph_from_json,
    graph_to_json,
    insert_point,
    is_connected,
    is_stable,
    on_edge,
    polarized_divisor,
    scaled,
    total_length,
    validate,
    with_lengths,
    with_points,
)
from .circuit import (
    QuadraticProfile,
    ResistanceValue,
    excised_edge_resistance,
    foster_sum,
    resistance,
    same_edge_resistance,
)
from .potentials import (
    Measure,
    admissible_measure,
    canonical_measure,
    capacity,
    green,
    green_measure_integral,
    potential,
    potential_profile,
)
from .invariants import InvariantReport, epsilon, phi, psi, report
from .hyperelliptic import (
    IdentityCheckReport,
    NodeTypeCounts,
    check_identities,
    d_invariant,
    node_count_rhs,
    psi_from_counts,
)
from .genus2 import (
    TAGS,
    build,
    catalog_identity_report,
    check_closed_form,
    check_sunset_rescaling,
    closed_form_pair,
    closed_form_phi,
    node_counts,
    rescaled_sunset_phi,
)
from .recovery import FitResult, MultivariateRationalFunction, evaluate, fit_phi
from .oracle import (
    OracleReport,
    ProbeReport,
    SubdivisionReport,
    convergence_report,
    laplacian_probe,
    quadrature_epsilon,
    quadrature_green_diagonal,
    quadrature_phi,
    subdivision_invariance_check,
)

__version__ = "0.1.0"
