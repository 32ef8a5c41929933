"""Exact genus-zero descendant correlators from finite quantum-cohomology input."""

from .exact import (
    CurveClass,
    GwdescError,
    NovikovSeries,
    PolicyMismatchError,
    RationalFormatError,
    TableFormatError,
    TruncationPolicy,
    antiderivative_q,
    derivative_q,
    format_rational,
    parse_rational,
)
from .geometry import (
    CohClass,
    GeometryModel,
    ModelError,
    ValidationReport,
    load_geometry,
)
from .moduli import (
    TautTable,
    TautTableError,
    constant_map_correlator,
    psi_integral_genus0,
)
from .engine import (
    CorrelatorEngine,
    PrimaryTable,
    ReconstructionError,
    UnsupportedQueryError,
)
from .fixtures import FixtureModel, load_fixture, plane_curve_counts
from .phase import (
    PhaseTransform,
    PotentialSeries,
    build_transform,
    compose_with_transform,
    potential_modified,
    potential_primary,
    potential_standard,
    quantum_product,
    summed_correlator,
    transform_identity_report,
    two_point_from_primaries,
)

__version__ = "0.1.0"

__all__ = [
    "CohClass",
    "CorrelatorEngine",
    "CurveClass",
    "FixtureModel",
    "GeometryModel",
    "GwdescError",
    "ModelError",
    "NovikovSeries",
    "PhaseTransform",
    "PolicyMismatchError",
    "PotentialSeries",
    "PrimaryTable",
    "RationalFormatError",
    "ReconstructionError",
    "TableFormatError",
    "TautTable",
    "TautTableError",
    "TruncationPolicy",
    "UnsupportedQueryError",
    "ValidationReport",
    "antiderivative_q",
    "build_transform",
    "compose_with_transform",
    "constant_map_correlator",
    "derivative_q",
    "format_rational",
    "load_fixture",
    "load_geometry",
    "parse_rational",
    "plane_curve_counts",
    "potential_modified",
    "potential_primary",
    "potential_standard",
    "psi_integral_genus0",
    "quantum_product",
    "summed_correlator",
    "transform_identity_report",
    "two_point_from_primaries",
]
