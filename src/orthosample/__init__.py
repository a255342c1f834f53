"""Spectral inference for time series via orthogonal shifted samples.

Weighted averages of the periodogram evaluated at shifted frequency pairs
are asymptotically uncorrelated with the original statistic and share its
variance.  This package uses those shifted copies to studentize estimators,
calibrate hypothesis tests without resampling, and select tuning parameters.
"""

from .distributions import (
    Dist,
    chi_square,
    f_dist,
    hotelling_t2,
    normal,
    student_t,
)
from .equality import (
    KernelSpec,
    beta_hat,
    equality_test,
    kernel_spectral_estimate,
    l2_distance_stat,
)
from .htests import (
    EmpiricalNull,
    TestReport,
    block_bootstrap_null,
    bootstrap_portmanteau_test,
    box_pierce,
    empirical_pvalue,
    goodness_of_fit_test,
    l2_stat,
    portmanteau_test,
    robust_portmanteau,
)
from .models import MODEL_REGISTRY, ModelSpec, generate, generate_bivariate
from .selection import SelectionResult, criterion, feasible_search_set, select_M
from .spectral import (
    DftGrid,
    InvalidInputError,
    OrthogonalSample,
    ShiftRangeError,
    WeightFunction,
    ar_spectral_density,
    ar_transfer,
    circular_autocov,
    constant_weight,
    dft,
    grid_frequencies,
    kernel_weight,
    lag_weight,
    model_reciprocal_weight,
    orthogonal_sample,
    quadratic_form_oracle,
    weighted_average,
    weighted_average_run,
)
from .variance import (
    CovMatrixEstimate,
    DegenerateVarianceError,
    HotellingReport,
    StudentizedReport,
    VarianceEstimate,
    composite_variance,
    covariance_matrix_estimate,
    hotelling_test,
    studentize,
    variance_estimate,
    variance_estimate_at,
)
from .whittle import (
    ARModel,
    SpectralModel,
    WhittleFit,
    ar_model,
    score_weight,
    whittle_fit,
    whittle_objective,
    whittle_score_variance,
)

__version__ = "0.1.0"

__all__ = [
    "Dist", "normal", "student_t", "chi_square", "f_dist", "hotelling_t2",
    "KernelSpec", "kernel_spectral_estimate", "l2_distance_stat", "beta_hat",
    "equality_test",
    "EmpiricalNull", "TestReport", "l2_stat", "portmanteau_test",
    "goodness_of_fit_test", "box_pierce", "robust_portmanteau",
    "block_bootstrap_null", "bootstrap_portmanteau_test", "empirical_pvalue",
    "MODEL_REGISTRY", "ModelSpec", "generate", "generate_bivariate",
    "SelectionResult", "criterion", "select_M", "feasible_search_set",
    "DftGrid", "InvalidInputError", "ShiftRangeError", "WeightFunction",
    "OrthogonalSample", "dft", "grid_frequencies", "ar_transfer",
    "ar_spectral_density", "weighted_average",
    "weighted_average_run", "orthogonal_sample", "quadratic_form_oracle",
    "circular_autocov", "lag_weight", "constant_weight", "kernel_weight",
    "model_reciprocal_weight",
    "VarianceEstimate", "CovMatrixEstimate", "StudentizedReport",
    "HotellingReport", "DegenerateVarianceError", "variance_estimate",
    "variance_estimate_at", "studentize", "covariance_matrix_estimate",
    "hotelling_test", "composite_variance",
    "SpectralModel", "ARModel", "WhittleFit", "ar_model",
    "whittle_objective", "whittle_fit", "score_weight",
    "whittle_score_variance",
    "__version__",
]
