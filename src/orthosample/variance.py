"""Variance estimation from orthogonal samples, studentized statistics with
fixed-M t calibration, and the multivariate Hotelling extension.

``variance_block`` and ``studentize_block`` hold the only V-hat_M and
t-statistic arithmetic, for every row of a block at once; the single-series
``variance_estimate``, ``variance_estimate_at`` and ``studentize`` are their
blocks of one."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .spectral import (
    DftGrid,
    OrthogonalSample,
    WeightFunction,
    _check_shift,
    weighted_average_run,
)

__all__ = [
    "VarianceEstimate",
    "StudentizedReport",
    "CovMatrixEstimate",
    "DegenerateVarianceError",
    "variance_block",
    "studentize_block",
    "variance_estimate",
    "variance_estimate_at",
    "studentize",
    "covariance_matrix_estimate",
    "HotellingReport",
    "hotelling_test",
]


class DegenerateVarianceError(ValueError):
    """All orthogonal-sample entries vanished; no studentization is possible."""


@dataclass(frozen=True)
class VarianceEstimate:
    """V-hat_M = (T/M) * sum of |A(phi; s)|^2 over an M-long shift window.

    ``shift_origin`` is 0 for the variance at frequency zero and r for the
    window starting after shift r.  The estimand is the long-run variance
    V(omega_{r0}) of the underlying functional, which involves the fourth
    order spectrum and is never evaluated directly.
    """

    value: float
    M: int
    T: int
    shift_origin: int = 0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("variance estimate cannot be negative")


@dataclass(frozen=True)
class StudentizedReport:
    statistic: float
    df: int
    p_value: float
    one_sided: bool = False
    confidence_intervals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CovMatrixEstimate:
    matrix: np.ndarray
    M: int
    T: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


def variance_block(shifted: np.ndarray, T: int) -> np.ndarray:
    """V-hat_M = (T/M) * sum_s |A(phi; s)|^2 for each row of an (R, M) block
    whose row holds the M shifted weighted averages of one size-T series."""
    return T / shifted.shape[-1] * np.sum(np.abs(shifted) ** 2, axis=-1)


def studentize_block(points, target, variances, T: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_M, sqrt(V-hat_M / T)) for each row of a block: the statistic
    T_M = sqrt(T) (A_T - A) / sqrt(V-hat_M) of each point A_T against the
    target A, and its standard error. A zero variance estimate on any row
    fails the block."""
    variances = np.asarray(variances)
    if np.any(variances <= 0):
        raise DegenerateVarianceError(
            "orthogonal-sample variance estimate is zero; series may be degenerate"
        )
    scales = np.sqrt(variances / T)
    return (points - target) / scales, scales


def variance_estimate(sample: OrthogonalSample) -> VarianceEstimate:
    """V-hat_M(0) = (T/M) * sum_{r=1..M} |A(phi; r)|^2."""
    value = float(variance_block(sample.shifted, sample.T))
    return VarianceEstimate(value=value, M=sample.M, T=sample.T, shift_origin=0)


def variance_estimate_at(grid: DftGrid, phi: WeightFunction, r0: int,
                         M: int) -> VarianceEstimate:
    """V-hat_M(omega_{r0}) = (T/M) * sum_{s=r0+1..r0+M} |A(phi; s)|^2.

    The window end r0 + M must lie below T/2, like every shift."""
    T = grid.T
    M = _check_shift(T, M, "M", 1)
    r0 = _check_shift(T, r0, "r0")
    run = weighted_average_run(grid, phi, r0 + M)
    value = float(variance_block(run[r0 + 1 :], T))
    return VarianceEstimate(value=value, M=M, T=T, shift_origin=r0)


def studentize(point: float, target: float, variance: VarianceEstimate,
               T: int, one_sided: bool = False,
               ci_levels: tuple = (0.95,)) -> StudentizedReport:
    """T_M = sqrt(T) (A_T - A) / sqrt(V-hat_M(0)), calibrated against t_{2M}.

    Two-sided p-values by default; intervals for the target at the requested
    confidence levels are returned alongside.
    """
    stat, scale = studentize_block(point, target, variance.value, T)
    df = 2 * variance.M
    law = dist.student_t(df)
    if one_sided:
        p = law.sf(stat)
    else:
        p = 2.0 * law.sf(abs(stat))
    cis = {}
    for level in ci_levels:
        q = law.quantile(0.5 + level / 2.0)
        cis[level] = (point - q * scale, point + q * scale)
    return StudentizedReport(statistic=float(stat), df=df, p_value=float(min(p, 1.0)),
                             one_sided=one_sided, confidence_intervals=cis)


def covariance_matrix_estimate(samples: list[OrthogonalSample]) -> CovMatrixEstimate:
    """Sigma-hat_M from the orthogonal-sample vectors of p functionals.

    With A(r) the p-vector of shifted functionals,
    Sigma-hat = (T/M) * sum_r [Re A(r) Re A(r)' + Im A(r) Im A(r)'],
    which is symmetric PSD by construction and reduces to the scalar
    variance estimate when p = 1.
    """
    if not samples:
        raise ValueError("need at least one orthogonal sample")
    M = samples[0].M
    T = samples[0].T
    for s in samples:
        if s.M != M or s.T != T:
            raise ValueError("all orthogonal samples must share M and T")
    A = np.stack([s.shifted for s in samples])  # p x M
    re, im = A.real, A.imag
    sigma = T / M * (re @ re.T + im @ im.T)
    sigma = 0.5 * (sigma + sigma.T)
    return CovMatrixEstimate(matrix=sigma, M=M, T=T)


@dataclass(frozen=True)
class HotellingReport:
    statistic: float
    p: int
    df: int
    p_value: float


def hotelling_test(points, targets, cov: CovMatrixEstimate) -> HotellingReport:
    """T (A_T - A)' Sigma-hat^{-1} (A_T - A) against Hotelling T^2(p, 2M).

    A covariance estimate whose condition number exceeds 1e12 counts as rank
    deficient."""
    a = np.asarray(points, dtype=float) - np.asarray(targets, dtype=float)
    p = cov.p
    if a.shape != (p,):
        raise ValueError(f"points/targets must be length-{p} vectors")
    eigvals = np.linalg.eigvalsh(cov.matrix)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > 1e12:
        raise DegenerateVarianceError(
            f"covariance estimate is rank deficient (smallest eigenvalue "
            f"{eigvals[0]:.3e}); increase M relative to p"
        )
    stat = float(cov.T * a @ np.linalg.solve(cov.matrix, a))
    law = dist.hotelling_t2(p, 2 * cov.M)
    return HotellingReport(statistic=stat, p=p, df=2 * cov.M,
                           p_value=float(law.sf(stat)))
