"""Data-driven choice of the orthogonal-sample size M via the average squared
criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import DftGrid, ShiftRangeError, WeightFunction, weighted_average_run
from .variance import DegenerateVarianceError

__all__ = ["SelectionResult", "criterion", "select_M", "feasible_search_set",
           "DEFAULT_SEARCH_SET", "DEFAULT_P"]

DEFAULT_SEARCH_SET = range(10, 31)
DEFAULT_P = 4


@dataclass(frozen=True)
class SelectionResult:
    chosen_M: int
    criterion_curve: dict
    search_set: tuple
    p: int


def _criteria(run: np.ndarray, T: int, members, p: int) -> np.ndarray:
    """C(M) for every M in ``members`` from one precomputed shift run
    A(phi; 0..), as one (|members|, T/p) array of variance windows."""
    nr = T // p
    Ms = np.asarray(members)
    sq = np.abs(run) ** 2  # |A(phi; s)|^2 at index s
    # V-hat_M(omega_r) = (T/M) sum_{s=r+1..r+M} sq[s], r = 1..nr: row i of
    # the sliding view holds csum[Ms[i] + r]
    csum = np.cumsum(sq)
    r = np.arange(1, nr + 1)
    windows = sliding_window_view(csum, nr)[Ms + 1]
    windows -= csum[r]
    windows *= (T / Ms)[:, None]
    degenerate = np.any(windows <= 0, axis=1)
    if degenerate.any():
        raise DegenerateVarianceError(
            f"degenerate variance window encountered for M={Ms[degenerate.argmax()]}"
        )
    # the score (T |A(phi; r)|^2 / V-hat_M(omega_r) - 1)^2, in the windows' storage
    score = np.divide(T * sq[r], windows, out=windows)
    score -= 1.0
    score **= 2
    return p / T * np.sum(score, axis=1)


def _check_window(T: int, M: int, p: int):
    if p < 2:
        raise ShiftRangeError("p must be >= 2")
    if M < 1:
        raise ShiftRangeError("M must be >= 1")
    if T // p + M >= T / 2:
        raise ShiftRangeError(
            f"criterion needs T/p + M < T/2; got T={T}, p={p}, M={M}"
        )


def criterion(grid: DftGrid, phi: WeightFunction, M: int, p: int = DEFAULT_P) -> float:
    """C(M) = (p/T) sum_{r=1..T/p} (T |A(phi; r)|^2 / V-hat_M(omega_r) - 1)^2."""
    T = grid.T
    _check_window(T, M, p)
    run = weighted_average_run(grid, phi, T // p + M)
    return float(_criteria(run, T, (M,), p)[0])


def feasible_search_set(T: int, search_set=DEFAULT_SEARCH_SET,
                        p: int = DEFAULT_P) -> tuple:
    """Members of the search set whose variance windows stay below T/2."""
    out = tuple(M for M in search_set if T // p + M < T / 2)
    if not out:
        raise ShiftRangeError(
            f"no feasible M in {list(search_set)} for T={T}, p={p}"
        )
    return out


def select_M(grid: DftGrid, phi: WeightFunction, search_set=DEFAULT_SEARCH_SET,
             p: int = DEFAULT_P) -> SelectionResult:
    """argmin of the criterion over the search set; ties go to the smallest M."""
    T = grid.T
    members = tuple(int(M) for M in search_set)
    if not members:
        raise ShiftRangeError("search set is empty")
    for M in members:
        _check_window(T, M, p)
    run = weighted_average_run(grid, phi, T // p + max(members))
    curve = dict(zip(members, _criteria(run, T, members, p).tolist()))
    chosen = min(sorted(curve), key=lambda M: curve[M])
    return SelectionResult(chosen_M=chosen, criterion_curve=curve,
                           search_set=members, p=p)
