"""Portmanteau and goodness-of-fit tests with orthogonal-sample empirical
nulls, plus the Box-Pierce, robust Portmanteau and block-bootstrap baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import distributions as dist
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, feasible_search_set, select_M
from .spectral import (
    SHIFT_BLOCK_POINTS,
    DftGrid,
    ShiftRangeError,
    WeightFunction,
    as_series,
    dft,
    lag_weight,
    model_reciprocal_weight,
    _shift_runs,
)

__all__ = [
    "EmpiricalNull",
    "TestReport",
    "l2_stat",
    "portmanteau_test",
    "goodness_of_fit_test",
    "box_pierce",
    "robust_portmanteau",
    "block_bootstrap_null",
    "empirical_pvalue",
    "bootstrap_portmanteau_test",
]

DEFAULT_ALPHAS = (0.05, 0.10)


@dataclass(frozen=True)
class EmpiricalNull:
    """Null-reference draws; 2M orthogonal-sample values or bootstrap draws."""

    draws: np.ndarray
    kind: str  # "orthogonal" | "bootstrap"

    def __post_init__(self):
        self.draws.setflags(write=False)
        if self.draws.size == 0:
            raise ValueError("empirical null must contain at least one draw")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("empirical null contains non-finite draws")


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    null_ref: object  # Dist or EmpiricalNull
    method: str
    tuning: dict = field(default_factory=dict)
    alphas: tuple = DEFAULT_ALPHAS

    def reject(self, alpha: float) -> bool:
        # strict inequality: reject at level alpha iff 1 - F(stat) < alpha
        return self.p_value < alpha

    @property
    def decisions(self) -> dict:
        return {a: self.reject(a) for a in self.alphas}


def empirical_pvalue(stat: float, null: EmpiricalNull) -> float:
    """#{draws >= stat} / #draws."""
    return float(np.count_nonzero(null.draws >= stat) / null.draws.size)


def _shift_table(grid: DftGrid, phis: Sequence[WeightFunction], max_r: int) -> np.ndarray:
    """A(phi_j; r) for j = 1..L (rows) and r = 0..max_r (columns), from 2-D
    FFTs of the weighted rows, as many rows at a time as a block holds."""
    T = grid.T
    step = max(1, SHIFT_BLOCK_POINTS // T)
    table = np.empty((len(phis), max_r + 1), dtype=complex)
    for lo in range(0, len(phis), step):
        w = np.stack([phi.on_grid(T) for phi in phis[lo:lo + step]])
        w *= grid.coeffs
        table[lo:lo + step] = _shift_runs(grid, w, max_r)
    return table


def _statistic(table: np.ndarray, T: int) -> float:
    """S = T sum_j |A(phi_j; 0)|^2 from the first column of a shift table."""
    return float(T * np.sum(np.abs(table[:, 0]) ** 2))


def _draws(table: np.ndarray, T: int) -> np.ndarray:
    """S_R(r), S_I(r) for r = 1..max_r, interleaved, with S_R(r) =
    2T sum_j (Re A(phi_j; r))^2 and S_I(r) the imaginary analogue."""
    cols = np.ascontiguousarray(table[:, 1:].T)  # row r - 1: A(phi_j; r), j = 1..L
    draws = np.empty(2 * cols.shape[0])
    draws[0::2] = 2 * T * np.sum(cols.real**2, axis=1)
    draws[1::2] = 2 * T * np.sum(cols.imag**2, axis=1)
    return draws


def l2_stat(series, phis: Sequence[WeightFunction], r: int = 0,
            demean: bool = True) -> tuple[float, float]:
    """(S_R(r), S_I(r)) with S_R(r) = 2T sum_j |Re A(phi_j; r)|^2 etc.

    r = 0 returns the test statistic S = T sum_j |A(phi_j)|^2 in the first
    slot and 0 in the second.
    """
    grid = dft(series, demean=demean)
    if r < 0 or r >= grid.T / 2:
        raise ShiftRangeError(f"shift r={r} out of range for T={grid.T}")
    table = _shift_table(grid, phis, r)
    if r == 0:
        return _statistic(table, grid.T), 0.0
    s_r, s_i = _draws(table, grid.T)[-2:]
    return float(s_r), float(s_i)


def _resolve_M(grid: DftGrid, selection_phi: WeightFunction, M, search_set, p):
    if M is not None:
        return int(M), None
    feasible = feasible_search_set(grid.T, search_set, p)
    sel = select_M(grid, selection_phi, feasible, p)
    return sel.chosen_M, sel


def _orthogonal_l2_test(grid: DftGrid, phis: Sequence[WeightFunction], M: int,
                        method: str, tuning: dict) -> TestReport:
    T = grid.T
    if M < 1 or M >= T / 2:
        raise ShiftRangeError(f"M={M} out of range for T={T}")
    table = _shift_table(grid, phis, M)
    stat = _statistic(table, T)
    null = EmpiricalNull(draws=_draws(table, T), kind="orthogonal")
    return TestReport(statistic=stat, p_value=empirical_pvalue(stat, null),
                      null_ref=null, method=method, tuning=dict(tuning, M=M))


def portmanteau_test(series, L: int = 5, M: int | None = None,
                     search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> TestReport:
    """Uncorrelatedness test Q = T sum_{j=1..L} |A(e^{ij.})|^2 with the
    orthogonal-sample empirical null.

    When M is not given it is chosen by the average squared criterion on the
    lag-one weight over the (feasibility-clipped) search set.
    """
    grid = dft(series, demean=True)
    if L < 1 or L >= grid.T / 2:
        raise ShiftRangeError(f"L={L} out of range for T={grid.T}")
    M, sel = _resolve_M(grid, lag_weight(1), M, search_set, p)
    phis = [lag_weight(j) for j in range(1, L + 1)]
    tuning = {"L": L, "M_selected": sel is not None}
    return _orthogonal_l2_test(grid, phis, M, "orthogonal_portmanteau", tuning)


def goodness_of_fit_test(series, null_density: Callable[[np.ndarray], np.ndarray],
                         L: int = 5, M: int | None = None,
                         search_set=DEFAULT_SEARCH_SET, p: int = DEFAULT_P) -> TestReport:
    """Spectral goodness-of-fit test with weights e^{ij.} / g(.; theta).

    ``null_density`` is the hypothesised spectral density g, strictly positive
    on the grid.  M selection uses the j = 1 weight.
    """
    grid = dft(series, demean=True)
    if L < 1 or L >= grid.T / 2:
        raise ShiftRangeError(f"L={L} out of range for T={grid.T}")
    phis = [model_reciprocal_weight(j, null_density) for j in range(1, L + 1)]
    M, sel = _resolve_M(grid, phis[0], M, search_set, p)
    tuning = {"L": L, "M_selected": sel is not None}
    return _orthogonal_l2_test(grid, phis, M, "orthogonal_gof", tuning)


def _truncated_autocov(x: np.ndarray, max_lag: int) -> np.ndarray:
    """c~(j) = (1/T) sum_{t=1..T-j} x_t x_{t+j} for j = 0..max_lag, x demeaned."""
    T = x.size
    return np.array([np.dot(x[: T - j], x[j:]) / T for j in range(max_lag + 1)])


def box_pierce(series, L: int = 5) -> TestReport:
    """Q~ = (T / c~(0)^2) sum_{j=1..L} c~(j)^2 against chi-square(L)."""
    x = as_series(series)
    if L < 1 or L >= x.size:
        raise ShiftRangeError(f"L={L} out of range for T={x.size}")
    x = x - x.mean()
    c = _truncated_autocov(x, L)
    if c[0] == 0:
        raise ZeroDivisionError("zero sample variance; Box-Pierce undefined")
    stat = float(x.size / c[0] ** 2 * np.sum(c[1:] ** 2))
    law = dist.chi_square(L)
    return TestReport(statistic=stat, p_value=float(law.sf(stat)), null_ref=law,
                      method="box_pierce", tuning={"L": L})


def robust_portmanteau(series, L: int = 5) -> TestReport:
    """Q* = T sum_j c~(j)^2 / tau_j with the fourth-moment normalisers
    tau_j = (1/(T-j)) sum_{t=j+1..T} (x_t - xbar)^2 (x_{t-j} - xbar)^2,
    against chi-square(L)."""
    x = as_series(series)
    T = x.size
    if L < 1 or L >= T:
        raise ShiftRangeError(f"L={L} out of range for T={T}")
    xc = x - x.mean()
    c = _truncated_autocov(xc, L)
    sq = xc**2
    stat = 0.0
    for j in range(1, L + 1):
        tau = np.dot(sq[j:], sq[: T - j]) / (T - j)
        if tau == 0:
            raise ZeroDivisionError(f"zero normaliser tau at lag {j}")
        stat += c[j] ** 2 / tau
    stat = float(T * stat)
    law = dist.chi_square(L)
    return TestReport(statistic=stat, p_value=float(law.sf(stat)), null_ref=law,
                      method="robust_portmanteau", tuning={"L": L})


def _circular_block_resample(x: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    T = x.size
    n_blocks = -(-T // B)
    starts = rng.integers(0, T, size=n_blocks)
    idx = (starts[:, None] + np.arange(B)[None, :]) % T
    return x[idx].ravel()[:T]


def block_bootstrap_null(series, vector_stat: Callable[[np.ndarray], np.ndarray],
                         B: int, n_boot: int = 1000,
                         rng: np.random.Generator | None = None) -> EmpiricalNull:
    """Centralised block-bootstrap null for an L2 statistic T sum_j |v_j|^2.

    ``vector_stat`` maps a series to the underlying complex vector (e.g. the
    lag covariances A(e^{ij.})); resample vectors are centred at their
    bootstrap mean before the L2 statistic is formed.
    """
    x = as_series(series)
    T = x.size
    if not 1 <= B <= T:
        raise ShiftRangeError(f"block length B={B} out of range [1, {T}]")
    if n_boot < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    if rng is None:
        rng = np.random.default_rng()
    vecs = np.stack([
        np.asarray(vector_stat(_circular_block_resample(x, B, rng)), dtype=complex)
        for _ in range(n_boot)
    ])
    centred = vecs - vecs.mean(axis=0, keepdims=True)
    draws = T * np.sum(np.abs(centred) ** 2, axis=1)
    return EmpiricalNull(draws=draws, kind="bootstrap")


def bootstrap_portmanteau_test(series, L: int = 5, B: int = 20,
                               n_boot: int = 1000,
                               rng: np.random.Generator | None = None) -> TestReport:
    """Portmanteau Q statistic with block-bootstrap critical values."""
    def lag_vector(x):
        grid = dft(x, demean=True)
        return _shift_table(grid, [lag_weight(j) for j in range(1, L + 1)], 0)[:, 0]

    x = as_series(series)
    stat = float(x.size * np.sum(np.abs(lag_vector(x)) ** 2))
    null = block_bootstrap_null(x, lag_vector, B=B, n_boot=n_boot, rng=rng)
    return TestReport(statistic=stat, p_value=empirical_pvalue(stat, null),
                      null_ref=null, method="bootstrap_portmanteau",
                      tuning={"L": L, "B": B, "n_boot": n_boot})
