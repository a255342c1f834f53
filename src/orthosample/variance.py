"""Variance estimation from orthogonal samples, studentized statistics with
fixed-M t calibration, and the multivariate Hotelling extension, each
statistic an ``htests.TestReport`` with t(2M) or T^2(p, 2M) as ``null_ref``.

Every estimate is a ``CovMatrixEstimate``, V-hat_M its 1x1 case, under one
validity rule: a square 2-D float array, all finite, with a diagonal >= 0.

``studentize_block`` holds the only t-statistic arithmetic.  V-hat_M is
formed in three places, one per shape of the answer: ``variance_block``, one
window of M shifts per row of a block (the single-series
``variance_estimate`` and ``studentize`` are its blocks of one);
``selection._criteria``, the windows at every start r = 1..T/p for every M
of a search set at once, as differences of one cumsum, O(1) per window where
``variance_block`` would take O(M); and ``_covariance_block``, Sigma-hat_M,
the cross products of p functionals, whose diagonal is V-hat_M of each.  A
zero variance estimate and a rank-deficient covariance estimate raise
``spectral.DegenerateDataError``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .htests import TestReport
from .spectral import DegenerateDataError, InvalidInputError, OrthogonalSample, _real

__all__ = ["CovMatrixEstimate", "variance_block", "studentize_block", "variance_estimate",
           "studentize", "covariance_matrix_estimate", "hotelling_test"]


@dataclass(frozen=True)
class CovMatrixEstimate:
    """Sigma-hat_M of p functionals (``_covariance_block``), V-hat_M its 1x1 case
    (``variance_block``); the estimand involves the fourth order spectrum."""

    matrix: np.ndarray
    M: int
    T: int

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype.kind == "f" and m.ndim == 2
                and m.shape[0] == m.shape[1] > 0):
            got = (f"dtype {m.dtype}, shape {m.shape}" if isinstance(m, np.ndarray)
                   else type(m).__name__)
            raise InvalidInputError(f"covariance estimate matrix ({got}) is not a square 2-D "
                                    "float array")
        for bad, cause in ((~np.isfinite(m), "is not finite"),
                           (np.diag(np.diag(m) < 0), "is negative")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise InvalidInputError(f"covariance estimate matrix[{i}, {j}]={m[i, j]} {cause}")
        m.setflags(write=False)

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
        raise DegenerateDataError(
            "orthogonal-sample variance estimate is zero; series may be degenerate"
        )
    scales = np.sqrt(variances / T)
    return (points - target) / scales, scales


def variance_estimate(sample: OrthogonalSample) -> CovMatrixEstimate:
    """V-hat_M(0) = (T/M) * sum_{r=1..M} |A(phi; r)|^2, the 1x1 estimate."""
    return CovMatrixEstimate(matrix=variance_block(sample.shifted, sample.T).reshape(1, 1),
                             M=sample.M, T=sample.T)


def studentize(point: float, target: float, variance: CovMatrixEstimate, T: int,
               one_sided: bool = False, ci_levels: tuple = (0.95,)) -> TestReport:
    """T_M = sqrt(T) (A_T - A) / sqrt(V-hat_M(0)), calibrated against t_{2M}.

    Two-sided p-values by default.  ``tuning`` holds M, ``one_sided`` and the
    intervals for the target at the requested confidence levels, each a real
    number in (0, 1).  The point and the target obey the real-number rule,
    ``variance`` must be a 1x1 estimate and ``T`` must be its own T."""
    if variance.p != 1:
        raise InvalidInputError(f"studentize needs a 1x1 variance estimate, not p={variance.p}")
    if T != variance.T:
        raise InvalidInputError(f"T={T} differs from the variance estimate's T={variance.T}")
    point, target = _real(point, "point"), _real(target, "target")
    stat, scale = studentize_block(point, target, variance.matrix[0, 0], T)
    law = dist.student_t(2 * variance.M)
    p = law.sf(stat) if one_sided else 2.0 * law.sf(abs(stat))
    cis = {}
    for level in ci_levels:
        if not 0.0 < (level := _real(level, "confidence level")) < 1.0:
            raise InvalidInputError(f"confidence level={level} outside (0, 1)")
        q = law.quantile(0.5 + level / 2.0)
        cis[level] = (point - q * scale, point + q * scale)
    return TestReport(statistic=float(stat), p_value=float(min(p, 1.0)), null_ref=law,
                      method="studentized_t", tuning={"M": variance.M, "one_sided": one_sided,
                                                      "confidence_intervals": cis})


def _covariance_block(shifted: np.ndarray, T: int) -> np.ndarray:
    """Sigma-hat_M = (T/M) * sum_r [Re A(r) Re A(r)' + Im A(r) Im A(r)'] from
    the (p, M) block of p functionals' shifted values; symmetric PSD."""
    re, im = shifted.real, shifted.imag
    sigma = T / shifted.shape[1] * (re @ re.T + im @ im.T)
    return 0.5 * (sigma + sigma.T)


def covariance_matrix_estimate(samples: list[OrthogonalSample]) -> CovMatrixEstimate:
    """Sigma-hat_M from the orthogonal-sample vectors of p functionals, which
    must share M and T; for p = 1 it is V-hat_M up to rounding."""
    if not samples:
        raise InvalidInputError("need at least one orthogonal sample")
    M, T = samples[0].M, samples[0].T
    for i, s in enumerate(samples):
        if s.M != M or s.T != T:
            raise InvalidInputError(f"samples[{i}] has M={s.M}, T={s.T}, but samples[0] has "
                                    f"M={M}, T={T}; all must share M and T")
    return CovMatrixEstimate(matrix=_covariance_block(np.stack([s.shifted for s in samples]), T),
                             M=M, T=T)


def hotelling_test(points, targets, cov: CovMatrixEstimate) -> TestReport:
    """T (A_T - A)' Sigma-hat^{-1} (A_T - A) against Hotelling T^2(p, 2M),
    with M in ``tuning``.  Each point and target obeys the real-number rule.

    A covariance estimate whose condition number exceeds 1e12 counts as rank
    deficient."""
    p = cov.p
    if np.shape(points) != (p,) or np.shape(targets) != (p,):  # before numpy broadcasts them
        raise ValueError(f"points/targets must be length-{p} vectors")
    a = (np.array([_real(v, f"points[{i}]") for i, v in enumerate(points)])
         - np.array([_real(v, f"targets[{i}]") for i, v in enumerate(targets)]))
    eigvals = np.linalg.eigvalsh(cov.matrix)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > 1e12:
        raise DegenerateDataError(f"covariance estimate is rank deficient (smallest eigenvalue "
                                  f"{eigvals[0]:.3e}); increase M relative to p")
    stat = float(cov.T * a @ np.linalg.solve(cov.matrix, a))
    law = dist.hotelling_t2(p, 2 * cov.M)
    return TestReport(statistic=stat, p_value=float(law.sf(stat)), null_ref=law,
                      method="hotelling_t2", tuning={"M": cov.M})
