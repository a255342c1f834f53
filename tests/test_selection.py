"""Data-driven choice of the number of shifts M."""

import numpy as np
import pytest

from orthosample.htests import portmanteau_test
from orthosample.models import MODEL_REGISTRY, generate
from orthosample.selection import (
    DEFAULT_P,
    criterion,
    feasible_search_set,
    select_M,
)
from orthosample.spectral import ShiftRangeError, dft, lag_weight, weighted_average
from orthosample.variance import DegenerateVarianceError


def naive_criterion(x, M, p):
    """Literal double-loop evaluation of the average squared error."""
    grid = dft(x)
    T = grid.T
    phi = lag_weight(1)
    total = 0.0
    for r in range(1, T // p + 1):
        num = T * abs(weighted_average(grid, phi, r)) ** 2
        vhat = T / M * sum(
            abs(weighted_average(grid, phi, s)) ** 2 for s in range(r + 1, r + M + 1)
        )
        total += (num / vhat - 1.0) ** 2
    return p / T * total


class TestCriterion:
    def test_matches_naive_form(self, rng):
        x = rng.standard_normal(80)
        for M, p in [(3, 4), (8, 4), (5, 8)]:
            got = criterion(dft(x), lag_weight(1), M, p)
            assert got == pytest.approx(naive_criterion(x, M, p), rel=1e-10)

    def test_nonnegative_and_scale_invariant(self, rng):
        x = rng.standard_normal(120)
        c1 = criterion(dft(x), lag_weight(1), 6, 4)
        c2 = criterion(dft(3.7 * x), lag_weight(1), 6, 4)
        assert c1 >= 0
        assert c2 == pytest.approx(c1, rel=1e-10)

    def test_window_preconditions(self, rng):
        grid = dft(rng.standard_normal(60))
        with pytest.raises(ShiftRangeError):
            criterion(grid, lag_weight(1), 20, 4)  # 15 + 20 >= 30
        with pytest.raises(ShiftRangeError):
            criterion(grid, lag_weight(1), 5, 1)  # p < 2

    def test_degenerate_series_raises(self):
        x = np.ones(80)
        with pytest.raises(DegenerateVarianceError):
            criterion(dft(x), lag_weight(1), 4, 4)


class TestSelectM:
    def test_singleton_set(self, rng):
        grid = dft(rng.standard_normal(100))
        sel = select_M(grid, lag_weight(1), [7], 4)
        assert sel.chosen_M == 7
        assert set(sel.criterion_curve) == {7}

    def test_chooses_curve_minimum_with_smallest_tie(self, rng):
        grid = dft(rng.standard_normal(200))
        sel = select_M(grid, lag_weight(1), range(5, 21), 4)
        curve = sel.criterion_curve
        best = min(curve.values())
        assert curve[sel.chosen_M] == best
        assert sel.chosen_M == min(m for m, v in curve.items() if v == best)

    def test_curve_matches_standalone_criterion(self, rng):
        grid = dft(rng.standard_normal(150))
        sel = select_M(grid, lag_weight(1), [4, 8, 12], 4)
        for M, val in sel.criterion_curve.items():
            assert val == pytest.approx(criterion(grid, lag_weight(1), M, 4), rel=1e-12)

    def test_negation_invariance(self, rng):
        x = rng.standard_normal(160)
        s1 = select_M(dft(x), lag_weight(1), range(4, 15), 4)
        s2 = select_M(dft(-x), lag_weight(1), range(4, 15), 4)
        assert s1.chosen_M == s2.chosen_M

    def test_empty_set_rejected(self, rng):
        with pytest.raises(ShiftRangeError):
            select_M(dft(rng.standard_normal(100)), lag_weight(1), [], 4)


class TestFeasibleSet:
    def test_clipping_at_small_T(self):
        # T = 100, p = 4: windows need 25 + M < 50, so M <= 24
        feas = feasible_search_set(100, range(10, 31), 4)
        assert feas == tuple(range(10, 25))

    def test_full_set_at_large_T(self):
        assert feasible_search_set(500, range(10, 31), 4) == tuple(range(10, 31))

    def test_infeasible_raises(self):
        with pytest.raises(ShiftRangeError):
            feasible_search_set(40, range(10, 31), 2)

    @pytest.mark.parametrize("p", [0, 1])
    def test_p_checked_before_use(self, p):
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            feasible_search_set(200, range(10, 31), p)
        x = generate(MODEL_REGISTRY["normal"], 200, seed=5).series
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            portmanteau_test(x, p=p)


@pytest.mark.slow
class TestCurveShape:
    def test_u_shape_on_peaked_ar2(self):
        # sharp-spectrum AR(2): the averaged criterion curve rises at both
        # ends of the search range with an interior minimum
        spec = MODEL_REGISTRY["normal"]
        from orthosample.models import ar

        spec = ar([1.5, -0.75])
        feas = feasible_search_set(200, range(2, 61), 4)
        curves = []
        for r in range(100):
            grid = dft(generate(spec, 200, seed=[33, r]).series)
            sel = select_M(grid, lag_weight(1), feas, 4)
            curves.append([sel.criterion_curve[m] for m in feas])
        mean_curve = np.asarray(curves).mean(axis=0)
        interior_min = int(np.argmin(mean_curve))
        assert 0 < interior_min < len(feas) - 1
        assert mean_curve[0] > mean_curve[interior_min]
        assert mean_curve[-1] > mean_curve[interior_min]
