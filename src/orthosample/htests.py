"""Portmanteau and goodness-of-fit tests with orthogonal-sample empirical
nulls, plus the Box-Pierce and robust portmanteau baselines.

Block contract: ``portmanteau_block``, ``goodness_of_fit_block``,
``box_pierce_block`` and ``robust_portmanteau_block`` (and
``equality.equality_block``) test every row of an (R, T) block of series at
once (one DFT, one selection pass and one shift table for the orthogonal
tests) and return a :class:`BlockReport`.  Each single-series test is its
kernel's ``.report()`` on a block of one, so row i of a block reports what
the single-series test reports on series i.  A check that fails on any row
fails the whole block with the single-series test's exception; a constant
series, a degenerate selection window, or a statistic or null draw that
overflows raises ``spectral.DegenerateDataError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import distributions as dist
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, _feasible, _select_block
from .spectral import (
    DegenerateDataError,
    InvalidInputError,
    ShiftRangeError,
    _check_shift,
    _density_values,
    _integer,
    as_block,
    as_series,
    dft_block,
    grid_constant,
    grid_frequencies,
    shift_runs,
)

__all__ = [
    "EmpiricalNull",
    "TestReport",
    "portmanteau_test",
    "goodness_of_fit_test",
    "box_pierce",
    "robust_portmanteau",
    "BlockReport",
    "orthogonal_l2_block",
    "portmanteau_block",
    "goodness_of_fit_block",
    "box_pierce_block",
    "robust_portmanteau_block",
]

DEFAULT_ALPHAS = (0.05, 0.10)


@dataclass(frozen=True, eq=False)
class EmpiricalNull:
    """Null-reference draws: the 2M orthogonal-sample values."""

    draws: np.ndarray

    def __post_init__(self):
        self.draws.setflags(write=False)
        if self.draws.size == 0:
            raise ValueError("empirical null must contain at least one draw")
        if not np.isfinite(self.draws).all():
            raise ValueError("empirical null contains non-finite draws")

    def __str__(self):
        return f"orthogonal draws (n={self.draws.size})"


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    null_ref: object  # Dist or EmpiricalNull
    method: str
    tuning: dict = field(default_factory=dict)

    def reject(self, alpha: float) -> bool:
        # strict inequality: reject at level alpha iff 1 - F(stat) < alpha
        return self.p_value < alpha

    @property
    def decisions(self) -> dict:
        return {a: self.reject(a) for a in DEFAULT_ALPHAS}


def _lag_rows(T: int, L: int) -> np.ndarray:
    """e^{ij omega_k} for j = 1..L (rows) on the size-T grid, once 1 <= L < T/2
    holds; a read-only grid constant."""
    return _lag_rows_on_grid(T, _check_shift(T, L, "L", 1))


@grid_constant
def _lag_rows_on_grid(T: int, L: int) -> np.ndarray:
    j = np.arange(1, L + 1)
    rows = 1j * j[:, None] * grid_frequencies(T)
    return np.exp(rows, out=rows)


@dataclass(frozen=True, eq=False)
class BlockReport:
    """One test on every row of a block of R series.

    ``statistics`` and ``p_values`` have one entry per row, each finite: a
    row that is not, which only data whose scale overflows a float give,
    raises a ``DegenerateDataError`` naming the method and the row.
    ``null_ref`` is the law every row is calibrated against, or None when
    each row has its own null draws: row i of ``draws`` starts with the
    2 M_i draws of series i.  ``tuning`` maps a name to a per-row array or a
    constant of the block; M is ``tuning["M"]``.
    """

    statistics: np.ndarray
    p_values: np.ndarray
    method: str
    null_ref: object = None  # Dist or None
    draws: np.ndarray | None = None
    tuning: dict = field(default_factory=dict)

    def __post_init__(self):
        finite = np.isfinite(self.statistics) & np.isfinite(self.p_values)
        if not finite.all():
            raise DegenerateDataError(
                f"{self.method}: row {np.argmin(finite)} has a non-finite statistic or "
                f"p-value: the data's scale overflows a float")

    def report(self, i: int = 0) -> TestReport:
        """Row i as the single-series test reports it."""
        tuning = {k: v[i].item() if isinstance(v, np.ndarray) else v
                  for k, v in self.tuning.items()}
        null = self.null_ref or EmpiricalNull(draws=self.draws[i, :2 * tuning["M"]])
        return TestReport(statistic=float(self.statistics[i]), p_value=float(self.p_values[i]),
                          null_ref=null, method=self.method, tuning=tuning)


def _statistics(tables: np.ndarray, T: int) -> np.ndarray:
    """S = T sum_j |A(phi_j; 0)|^2 from the first column of each (L, .)
    shift table of an (R, L, .) block."""
    return T * np.add.reduce(np.abs(tables[:, :, 0]) ** 2, axis=-1)


def _draws(tables: np.ndarray, T: int) -> np.ndarray:
    """S_R(r), S_I(r) for r = 1..max_r, interleaved, for each table of an
    (R, L, max_r + 1) block, with S_R(r) = 2T sum_j (Re A(phi_j; r))^2 and
    S_I(r) the imaginary analogue."""
    cols = np.ascontiguousarray(tables[:, :, 1:].transpose(0, 2, 1))  # [i, r - 1, j]
    draws = np.empty((cols.shape[0], 2 * cols.shape[1]))
    draws[:, 0::2] = 2 * T * np.add.reduce(cols.real**2, axis=-1)
    draws[:, 1::2] = 2 * T * np.add.reduce(cols.imag**2, axis=-1)
    return draws


def orthogonal_l2_block(coeffs: np.ndarray, weights: np.ndarray, M=None,
                        search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P,
                        method: str = "orthogonal_l2") -> BlockReport:
    """S = T sum_j |A(phi_j)|^2 for every row of an (R, T) block of DFT
    coefficients, each against the 2M draws of its own orthogonal-sample null.

    ``weights`` holds phi_1..phi_L on the size-T grid, one row each.  When M
    is not given, each row's M is chosen by the criterion on the phi_1 run
    over the (feasibility-clipped) search set; one transform of the block
    gives both the selection runs and the shift tables.  ``method`` labels
    the report, and names the test when a row's draws overflow a float.
    """
    R, T = coeffs.shape
    if M is None:
        feasible, p = _feasible(T, search_set, p)
        runs = shift_runs(coeffs, weights, T // p + max(feasible))
        Ms = _select_block(runs[:, 0], T, feasible, p)[0]
    else:
        M = _check_shift(T, M, "M", 1)
        runs = shift_runs(coeffs, weights, M)
        Ms = np.full(R, M)
    top = int(Ms.max())
    stats = _statistics(runs, T)
    draws = _draws(runs[:, :, :top + 1], T)
    own = np.arange(2 * top) < 2 * Ms[:, None]  # row i: its first 2 M_i draws
    finite = (np.isfinite(draws) | ~own).all(axis=1)
    if not finite.all():
        raise DegenerateDataError(f"{method}: row {np.argmin(finite)} has non-finite null "
                                  "draws: the data's scale overflows a float")
    # #{draws >= stat} / #draws over each row's own draws
    exceed = np.count_nonzero((draws >= stats[:, None]) & own, axis=1)
    return BlockReport(stats, exceed / (2 * Ms), method, draws=draws,
                       tuning={"L": weights.shape[0], "M_selected": M is None, "M": Ms})


def portmanteau_block(block, L: int = 5, M: int | None = None,
                      search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> BlockReport:
    """:func:`portmanteau_test` on every row of an (R, T) block of series."""
    coeffs = dft_block(block, demean=True)
    return orthogonal_l2_block(coeffs, _lag_rows(coeffs.shape[1], L), M, search_set, p,
                               "orthogonal_portmanteau")


def portmanteau_test(series, L: int = 5, M: int | None = None,
                     search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> TestReport:
    """Uncorrelatedness test Q = T sum_{j=1..L} |A(e^{ij.})|^2 with the
    orthogonal-sample empirical null.

    When M is not given it is chosen by the average squared criterion on the
    lag-one weight over the (feasibility-clipped) search set.
    """
    return portmanteau_block(as_series(series)[None], L, M, search_set, p).report()


def goodness_of_fit_block(block, null_density: Callable[[np.ndarray], np.ndarray],
                          L: int = 5, M: int | None = None,
                          search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> BlockReport:
    """:func:`goodness_of_fit_test` on every row of an (R, T) block of series."""
    coeffs = dft_block(block, demean=True)
    T = coeffs.shape[1]
    _check_shift(T, L, "L", 1)  # L is checked before g is evaluated
    return _goodness_of_fit_coeffs(coeffs, null_density(grid_frequencies(T)), L, M,
                                   search_set, p)


def _goodness_of_fit_coeffs(coeffs: np.ndarray, density, L, M, search_set, p) -> BlockReport:
    """:func:`goodness_of_fit_block` given the block's (R, T) demeaned DFT
    coefficients and the null density's values on the size-T grid."""
    T = coeffs.shape[1]
    g = _density_values(density, "model density g")
    # numpy divides by g + 0i as a product with 1/g, so the weights are finite
    # just where 1/g is, and row j = 1 is the first that is not
    if not 1 / float(g.min()) < np.inf:
        raise InvalidInputError(f"weight 'lag_exp[1]/g' is non-finite on the size-{T} grid: "
                                "1/g overflows a float, the density's scale is too small")
    # the quotient is a copy of the shared rows
    return orthogonal_l2_block(coeffs, _lag_rows(T, L) / g, M, search_set, p, "orthogonal_gof")


def goodness_of_fit_test(series, null_density: Callable[[np.ndarray], np.ndarray],
                         L: int = 5, M: int | None = None,
                         search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> TestReport:
    """Spectral goodness-of-fit test with weights e^{ij.} / g(.; theta).

    ``null_density`` is the hypothesised spectral density g, strictly positive
    on the grid.  M selection uses the j = 1 weight.
    """
    return goodness_of_fit_block(as_series(series)[None], null_density, L, M,
                                 search_set, p).report()


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a[i], b[i]) for every row i, as one stacked vector product."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _truncated_autocov(xc: np.ndarray, max_lag: int) -> np.ndarray:
    """c~(j) = (1/T) sum_{t=1..T-j} x_t x_{t+j} for j = 0..max_lag, for every
    row of a demeaned (R, T) block, as an (R, max_lag + 1) array."""
    T = xc.shape[1]
    return np.stack([_row_dots(xc[:, : T - j], xc[:, j:]) / T
                     for j in range(max_lag + 1)], axis=1)


def _centred(block, L: int) -> tuple[np.ndarray, int]:
    """The validated block less its row means, and L as an int once 1 <= L < T."""
    x = as_block(block)
    L = _integer(L, "L", x.shape[1])
    if L < 1 or L >= x.shape[1]:
        raise ShiftRangeError(f"L={L} out of range for T={x.shape[1]}")
    return x - x.mean(axis=1, keepdims=True), L


def _chi_square_block(stats: np.ndarray, L: int, method: str) -> BlockReport:
    law = dist.chi_square(L)
    return BlockReport(statistics=stats, p_values=np.array([law.sf(float(s)) for s in stats]),
                       method=method, null_ref=law, tuning={"L": L})


def box_pierce_block(block, L: int = 5) -> BlockReport:
    """:func:`box_pierce` on every row of an (R, T) block of series."""
    xc, L = _centred(block, L)
    c = _truncated_autocov(xc, L)
    if np.any(c[:, 0] == 0):
        raise DegenerateDataError("zero sample variance; Box-Pierce undefined")
    stats = xc.shape[1] / c[:, 0] ** 2 * np.sum(c[:, 1:] ** 2, axis=1)
    return _chi_square_block(stats, L, "box_pierce")


def box_pierce(series, L: int = 5) -> TestReport:
    """Q~ = (T / c~(0)^2) sum_{j=1..L} c~(j)^2 against chi-square(L)."""
    return box_pierce_block(as_series(series)[None], L).report()


def robust_portmanteau_block(block, L: int = 5) -> BlockReport:
    """:func:`robust_portmanteau` on every row of an (R, T) block of series."""
    xc, L = _centred(block, L)
    T = xc.shape[1]
    c = _truncated_autocov(xc, L)
    sq = xc**2
    stats = 0.0
    for j in range(1, L + 1):
        tau = _row_dots(sq[:, j:], sq[:, : T - j]) / (T - j)
        if np.any(tau == 0):
            raise DegenerateDataError(f"zero normaliser tau at lag {j}")
        stats = stats + c[:, j] ** 2 / tau
    return _chi_square_block(T * stats, L, "robust_portmanteau")


def robust_portmanteau(series, L: int = 5) -> TestReport:
    """Q* = T sum_j c~(j)^2 / tau_j with the fourth-moment normalisers
    tau_j = (1/(T-j)) sum_{t=j+1..T} (x_t - xbar)^2 (x_{t-j} - xbar)^2,
    against chi-square(L)."""
    return robust_portmanteau_block(as_series(series)[None], L).report()
