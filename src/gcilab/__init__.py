"""Numerical laboratory for Gaussian measures of symmetric convex bodies.

Covers multivariate normal rectangle probabilities (randomized QMC with a
deterministic quadrature oracle), origin-symmetric convex geometry in band,
polygon, and halfspace form, Gaussian measure estimation, a suite of
correlation-inequality checkers with three-way verdicts, and a refined
simultaneous confidence correction.
"""

from .convexgeom import (
    HPolytope,
    Polygon2D,
    SymmetricBand,
    convex_hull_union,
    intersect_polygons,
    minkowski_contains,
    minkowski_sum,
    polygon_minkowski_sum,
    random_symmetric_polygon,
    random_unconditional_hpolytope,
)
from .errors import GciLabError
from .gaussmodel import (
    CorrelationModel,
    ThresholdVector,
    equicorrelated,
    from_covariance,
    load_covariance_csv,
    load_vector_csv,
    product_model,
    random_correlation,
)
from .ineqlab import (
    InequalityReport,
    REPORT_SCHEMA,
    check_lattice_premise,
    check_refined_sidak,
    check_rogers_shephard,
    check_royen,
    check_sidak,
    check_slab,
    check_strong_gci_2d,
    check_strong_gci_bands,
    check_tehranchi,
    check_unconditional,
    hull_counterexample,
    search_counterexample,
    sidak_ratio,
    strong_ratio,
    tensorize_check,
)
from .measure import (
    fiber_measure,
    gauss_measure_band,
    gauss_measure_mc,
    minkowski_measure_mc,
)
from .mvnprob import (
    Estimate,
    ProbabilityEstimate,
    inv_std_normal_cdf,
    oracle_region_prob,
    rect_prob,
    symmetric_rect_prob,
)
from .sidakcorrect import (
    CorrectionResult,
    improved_confidence,
    improved_critical_value,
    improvement_factor,
    sidak_critical_value,
)

__version__ = "0.1.0"
