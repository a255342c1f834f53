"""Data-driven choice of the number of shifts M."""

import json

import numpy as np
import pytest

from orthosample.cli import EXIT_OK, main
from orthosample.htests import goodness_of_fit_block, portmanteau_block, portmanteau_test
from orthosample.models import MODEL_REGISTRY, ModelSpec, generate, generate_batch
from orthosample.selection import (
    criterion,
    feasible_search_set,
    select_M,
    select_M_block,
)
from orthosample.spectral import (DegenerateDataError, ShiftRangeError, ar_spectral_density, dft,
                                  lag_weight, shift_runs, weighted_average,
                                  weighted_average_run)


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
        with pytest.raises(DegenerateDataError):
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


class TestOneSearchSetPolicy:
    """Every M search keeps the feasible members of its set, as the CLI and
    the test kernels do; only a set with none raises."""

    @pytest.mark.parametrize("T", [100, 118, 120])
    def test_default_set_is_clipped_everywhere(self, T, tmp_path, capsys):
        x = generate(MODEL_REGISTRY["normal"], T, seed=[31, T]).series
        path = tmp_path / "x.csv"
        path.write_text("\n".join(repr(v) for v in x.tolist()) + "\n")
        assert main(["selectM", str(path)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        cli_curve = {int(m): v for m, v in printed["criterion_curve"].items()}

        grid, phi = dft(x), lag_weight(1)
        sel = select_M(grid, phi)
        feasible = feasible_search_set(T)
        assert sel.search_set == feasible == tuple(cli_curve)
        assert sel.chosen_M == printed["chosen_M"] == portmanteau_test(x).tuning["M"]
        assert sel.criterion_curve == cli_curve
        assert {M: criterion(grid, phi, M) for M in feasible} == cli_curve
        run = weighted_average_run(grid, phi, T // 4 + max(feasible))
        chosen, curves, members = select_M_block(run[None], T, range(10, 31))
        assert chosen[0] == sel.chosen_M
        assert dict(zip(members, curves[0].tolist())) == cli_curve

    def test_no_feasible_member_raises(self, rng):
        grid, phi = dft(rng.standard_normal(100)), lag_weight(1)
        run = weighted_average_run(grid, phi, 49)[None]
        for call in [lambda: select_M(grid, phi, range(30, 40)),
                     lambda: criterion(grid, phi, 30),
                     lambda: select_M_block(run, 100, range(30, 40), 4),
                     lambda: criterion(dft(rng.standard_normal(60)), phi, 20, 4)]:
            with pytest.raises(ShiftRangeError, match="no feasible M"):
                call()


class TestSearchSetRuleInBlocks:
    """Every block and single-series selection takes a raw search set and p
    (integral floats included) through the search-set rule."""

    @pytest.fixture(scope="class")
    def block(self):
        seeds = [[7, 0, r] for r in range(4)]
        return generate_batch(MODEL_REGISTRY["x5"], 100, seeds).series

    def test_blocks_and_selections_take_raw_sets(self, block):
        def g(w):
            return ar_spectral_density(w, [0.3], 1.0)

        runs = shift_runs(dft(block[0]).coeffs[None], lag_weight(1).on_grid(100)[None], 49)
        calls = [lambda: portmanteau_block(block, L=3),
                 lambda: goodness_of_fit_block(block, g, L=3, search_set=(10.0, 12, 20), p=4.0),
                 lambda: select_M(dft(block[0]), lag_weight(1), range(10, 25), 4),
                 lambda: select_M_block(runs[:, 0], 100, range(10, 25), 4)]
        for call in calls:
            call()

    def test_block_selection_keeps_its_checks(self, block):
        # the rule still decides what fails, and which error comes first
        for search_set, p, match in [((10.9,), 1, "p must be >= 2"),
                                     ((10.9,), 4, "M=10.9 is not an integer"),
                                     ((), 4, "must be non-empty"),
                                     (range(30, 40), 4, "no feasible M")]:
            with pytest.raises(ShiftRangeError, match=match):
                portmanteau_block(block, L=3, search_set=search_set, p=p)
        runs = np.ones((2, 60), dtype=complex)
        # M = 25 is infeasible at T = 100, p = 4: the set is clipped to (10,)
        chosen, _, members = select_M_block(runs, 100, (10, 25), 4)
        assert members == (10,) and chosen.tolist() == [10, 10]
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            select_M_block(runs, 100, (10,), 1)


@pytest.mark.slow
class TestCurveShape:
    def test_u_shape_on_peaked_ar2(self):
        # sharp-spectrum AR(2): the averaged criterion curve rises at both
        # ends of the search range with an interior minimum
        spec = ModelSpec("ar", {"coeffs": (1.5, -0.75), "innovation": "normal"})
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
