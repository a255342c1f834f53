"""Data-driven choice of the orthogonal-sample size M via the average squared
criterion.

Block contract: :func:`select_M_block` chooses M for every row of an (R, n)
block of shift runs from one cumsum; :func:`select_M` is its block of one and
returns, for each series, the M and the criterion curve the block gives its
row.  Every search set is clipped to its feasible members
(:func:`feasible_search_set`); only a set with none raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import DftGrid, ShiftRangeError, WeightFunction, _integer, weighted_average_run
from .variance import DegenerateVarianceError

__all__ = ["SelectionResult", "criterion", "select_M", "select_M_block", "feasible_search_set",
           "DEFAULT_SEARCH_SET", "DEFAULT_P"]

DEFAULT_SEARCH_SET = range(10, 31)
DEFAULT_P = 4


@dataclass(frozen=True)
class SelectionResult:
    chosen_M: int
    criterion_curve: dict
    search_set: tuple
    p: int


def _criteria(runs: np.ndarray, T: int, members, p: int) -> np.ndarray:
    """C(M) for every row of an (R, >= T/p + max M + 1) block of shift runs
    A(phi; 0..) and every M in ``members``, as an (R, |members|) array, from
    one cumsum and one (R, |members|, T/p) array of variance windows."""
    nr = T // p
    Ms = np.asarray(members)
    sq = np.abs(runs) ** 2  # |A(phi; s)|^2 at index s
    # V-hat_M(omega_r) = (T/M) sum_{s=r+1..r+M} sq[s], r = 1..nr: window
    # [i, m] holds csum[i, Ms[m] + r]
    csum = np.cumsum(sq, axis=-1)
    r = np.arange(1, nr + 1)
    windows = sliding_window_view(csum, nr, axis=-1)[:, Ms + 1]
    windows -= csum[:, None, r]
    windows *= (T / Ms)[:, None]
    degenerate = np.any(windows <= 0, axis=(0, 2))
    if degenerate.any():
        raise DegenerateVarianceError(
            f"degenerate variance window encountered for M={Ms[degenerate.argmax()]}"
        )
    # the score (T |A(phi; r)|^2 / V-hat_M(omega_r) - 1)^2, in the windows' storage
    score = np.divide(T * sq[:, None, r], windows, out=windows)
    score -= 1.0
    score **= 2
    return p / T * np.sum(score, axis=-1)


def criterion(grid: DftGrid, phi: WeightFunction, M: int, p: int = DEFAULT_P) -> float:
    """C(M) = (p/T) sum_{r=1..T/p} (T |A(phi; r)|^2 / V-hat_M(omega_r) - 1)^2:
    :func:`select_M`'s curve at the one M, which must be feasible."""
    return select_M(grid, phi, (M,), p).criterion_curve[M]


def _check_p(p) -> int:
    """p as an int once p >= 2: the first check of the search-set rule."""
    p = _integer(p, "p")
    if p < 2:
        raise ShiftRangeError("p must be >= 2")
    return p


def _search_set(search_set, p) -> tuple:
    """The search-set rule: (members, p) as ints once p >= 2, and the set is
    non-empty with every M >= 1."""
    p = _check_p(p)
    members = tuple(_integer(M, "M") for M in search_set)
    if not members or min(members) < 1:
        raise ShiftRangeError(f"search set {list(members)} must be non-empty with every M >= 1")
    return members, p


def _feasible(T: int, search_set, p) -> tuple:
    """(members, p) of :func:`feasible_search_set`; they pass the rule given T."""
    return _clip(T, *_search_set(search_set, p))


def _clip(T: int, members: tuple, p: int) -> tuple:
    """:func:`_feasible` on members and p that passed the rule."""
    out = tuple(M for M in members if T // p + M < T / 2)
    if not out:
        raise ShiftRangeError(f"no feasible M in {list(members)} for T={T}, p={p}")
    return out, p


def feasible_search_set(T: int, search_set=DEFAULT_SEARCH_SET,
                        p: int = DEFAULT_P) -> tuple:
    """Members of the search set whose variance windows stay below T/2."""
    return _feasible(T, search_set, p)[0]


def select_M(grid: DftGrid, phi: WeightFunction, search_set=DEFAULT_SEARCH_SET,
             p: int = DEFAULT_P) -> SelectionResult:
    """argmin of the criterion over the feasible members of the search set
    (:func:`feasible_search_set`); ties go to the smallest M.  The block of one
    of :func:`select_M_block`."""
    return _select_M(grid, phi, *_feasible(grid.T, search_set, p))


def _select_M(grid: DftGrid, phi: WeightFunction, members: tuple, p: int) -> SelectionResult:
    """:func:`select_M` on feasible members and p."""
    T = grid.T
    run = weighted_average_run(grid, phi, T // p + max(members))
    chosen, curves, uniq = _select(run[None], T, members, p)
    curve = dict(zip(uniq, curves[0].tolist()))
    return SelectionResult(chosen_M=int(chosen[0]),
                           criterion_curve={M: curve[M] for M in members},
                           search_set=members, p=p)


def select_M_block(runs: np.ndarray, T: int, search_set, p: int = DEFAULT_P):
    """The criterion-minimising M for every row of an (R, n) block of shift
    runs A(phi; 0..n-1), n > T/p + the largest feasible M, over the feasible
    members of the search set; ties go to the smallest M.

    Returns the chosen M per row, the (R, |U|) criterion curves and U, the
    sorted distinct feasible members.
    """
    return _select(runs, T, *_feasible(T, search_set, p))


def _select(runs: np.ndarray, T: int, members: tuple, p: int):
    """:func:`select_M_block` on feasible members and p."""
    uniq = tuple(sorted(set(members)))
    curves = _criteria(runs, T, uniq, p)
    # argmin keeps the first, so the smallest, of equal minima
    chosen = np.asarray(uniq)[np.argmin(curves, axis=1)]
    return chosen, curves, uniq
