"""Data-driven choice of the orthogonal-sample size M via the average squared
criterion.

Block contract: ``_select_block`` chooses M for every row of an (R, n)
block of shift runs from one cumsum; :func:`select_M` is its block of one,
and the orthogonal tests of ``htests`` choose each row's M through it.
Each caller applies the search-set rule and the feasible clip to its raw
search set and p once (``_feasible``): every search set is clipped to its
feasible members, those whose variance windows stay below T/2, and only a
set with none raises.  ``SelectionResult.search_set`` reports the feasible
members.  A variance window that is not positive, or a criterion that is
not finite, raises ``spectral.DegenerateDataError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (DegenerateDataError, DftGrid, ShiftRangeError, WeightFunction, _integer,
                       weighted_average_run)

__all__ = ["SelectionResult", "select_M", "DEFAULT_SEARCH_SET", "DEFAULT_P"]

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
    # [i, m] holds csum[i, Ms[m] + r], gathered from the (R, n - nr + 1, nr)
    # view of csum's length-nr windows, built straight on its buffer
    csum = np.cumsum(sq, axis=-1)
    r = slice(1, nr + 1)
    (R, n), (row, col) = csum.shape, csum.strides
    windows = np.ndarray((R, n - nr + 1, nr), float, csum, 0, (row, col, col))[:, Ms + 1]
    windows -= csum[:, None, r]
    windows *= (T / Ms)[:, None]
    if np.fmin.reduce(windows, axis=None) <= 0:  # fmin passes NaN over, as <= does
        degenerate = (windows <= 0).any(axis=(0, 2))
        raise DegenerateDataError(
            f"degenerate variance window encountered for M={Ms[degenerate.argmax()]}"
        )
    # the score (T |A(phi; r)|^2 / V-hat_M(omega_r) - 1)^2, in the windows' storage
    score = np.divide(T * sq[:, None, r], windows, out=windows)
    score -= 1.0
    score **= 2
    curves = p / T * np.add.reduce(score, axis=-1)
    # an overflowed |A|^2 can leave a curve finite, so both are checked
    if not (np.isfinite(sq).all() and np.isfinite(curves).all()):
        raise DegenerateDataError("criterion curve is not finite: "
                                  "the data's scale overflows a float")
    return curves


def _search_set(search_set, p) -> tuple:
    """The search-set rule: (members, p) as ints once p >= 2, and the set is
    non-empty with every M >= 1.  A range's members are ints already."""
    p = _integer(p, "p")
    if p < 2:
        raise ShiftRangeError("p must be >= 2")
    members = (tuple(search_set) if isinstance(search_set, range)
               else tuple(_integer(M, "M") for M in search_set))
    if not members or min(members) < 1:
        raise ShiftRangeError(f"search set {list(members)} must be non-empty with every M >= 1")
    return members, p


def _feasible(T: int, search_set, p) -> tuple:
    """(members, p) after the search-set rule, with the members kept that are
    feasible given T: those whose variance windows stay below T/2."""
    members, p = _search_set(search_set, p)
    out = tuple(M for M in members if T // p + M < T / 2)
    if not out:
        raise ShiftRangeError(f"no feasible M in {list(members)} for T={T}, p={p}")
    return out, p


def select_M(grid: DftGrid, phi: WeightFunction, search_set=DEFAULT_SEARCH_SET,
             p: int = DEFAULT_P) -> SelectionResult:
    """argmin of the criterion C(M) = (p/T) sum_{r=1..T/p} (T |A(phi; r)|^2 /
    V-hat_M(omega_r) - 1)^2 over the feasible members of the search set; ties
    go to the smallest M.  The block of one of ``_select_block``."""
    members, p = _feasible(grid.T, search_set, p)
    run = weighted_average_run(grid, phi, grid.T // p + max(members))
    chosen, curves, uniq = _select_block(run[None], grid.T, members, p)
    curve = dict(zip(uniq, curves[0].tolist()))
    return SelectionResult(chosen_M=int(chosen[0]),
                           criterion_curve={M: curve[M] for M in members},
                           search_set=members, p=p)


def _select_block(runs: np.ndarray, T: int, members: tuple, p: int):
    """The criterion-minimising M for every row of an (R, n) block of shift
    runs A(phi; 0..n-1), n > T/p + the largest member, over ``members`` and p
    that have passed the search-set rule and the feasible clip
    (:func:`_feasible`); ties go to the smallest M.

    Returns the chosen M per row, the (R, |U|) criterion curves and U, the
    sorted distinct members.
    """
    uniq = tuple(sorted(set(members)))
    curves = _criteria(runs, T, uniq, p)
    # argmin keeps the first, so the smallest, of equal minima
    chosen = np.asarray(uniq)[np.argmin(curves, axis=1)]
    return chosen, curves, uniq
