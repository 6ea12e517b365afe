"""Exact equivariant mirror symmetry for local curve geometries.

The package computes cohomology-valued hypergeometric series from toric
charge data, removes their positive hbar part, extracts mirror maps and
curve-class invariants, and verifies the rational closed forms those
invariants satisfy.  All arithmetic is exact.
"""

from .exact_core import (
    AlgebraError,
    CoeffRing,
    CoefficientError,
    CohomAlgebra,
    RingElem,
    algebra_from_relations,
    divide_linear,
    expand_reciprocal_at_infinity,
    rat,
    rat_str,
    reciprocal_hbar_linear,
)
from .series import (
    QSeries,
    SeriesError,
    SeriesRing,
    polylog_series,
    scalar_coeff_ring,
    series_reversion,
)
from .givental import (
    GeometryError,
    GeometrySpec,
    ThetaOperator,
    annihilation_check,
    default_series_ring,
    geometry,
    ifunction,
)
from .pipeline import (
    BirkhoffError,
    ComparisonReport,
    GWTable,
    MirrorData,
    PipelineError,
    PipelineResult,
    WRestriction,
    birkhoff,
    extract_mirror_maps,
    extract_w,
    factored_consistency_check,
    fibration_correspondence_check,
    gw_table,
    normalize_j,
    polylog_invert,
    restrict_w,
    run_pipeline,
)
from .closed_forms import (
    A2Genus1Report,
    ClosedFormError,
    ClosedGenus0,
    ClosedGenus1,
    Genus1Fit,
    a2_discriminant,
    a2_genus1_check,
    amodel_prepotential,
    bundle_bps,
    bundle_genus1_fit,
    bundle_mirror_check,
    epsilon,
    ftt_identity_check,
    genus0_data,
    genus1_ansatz_fit,
    genus1_data,
    genus1_fit_check,
    genus1_reference_check,
    pf_check,
    pf_operator,
    period_ft,
    prepotential_coefficient,
    prepotential_derivative,
    scalar_series_ring,
    tree_bracket_check,
    tree_classes,
    tree_prepotential,
    triple_intersection,
    yukawa_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
