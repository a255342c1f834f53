"""Uncorrelatedness and goodness-of-fit tests with empirical nulls."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from oracles import model_reciprocal_weight
from orthosample import htests
from orthosample.htests import (
    EmpiricalNull,
    box_pierce,
    goodness_of_fit_test,
    orthogonal_l2_block,
    portmanteau_test,
    robust_portmanteau,
)
from orthosample.models import MODEL_REGISTRY, generate
from orthosample.spectral import (
    InvalidInputError,
    ShiftRangeError,
    ar_spectral_density,
    dft,
    grid_frequencies,
    lag_weight,
    weighted_average,
)


def flat_density(om):
    return np.full_like(np.asarray(om, dtype=float), 1.0 / (2 * np.pi))


class TestEmpiricalNull:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalNull(draws=np.array([]))
        with pytest.raises(ValueError):
            EmpiricalNull(draws=np.array([1.0, np.nan]))

    def test_describes_itself(self):
        assert str(EmpiricalNull(draws=np.arange(1.0, 25.0))) == "orthogonal draws (n=24)"

    def test_block_counts_ties_as_exceedances(self, monkeypatch):
        # all-zero coefficients: the statistic and every draw are 0, so each draw ties
        zero = orthogonal_l2_block(np.zeros((2, 32), complex), np.ones((1, 32), complex), M=4)
        assert np.array_equal(zero.p_values, [1.0, 1.0])
        # p = #{draws >= stat} / 2M, the draws 1..4 (M = 2) against four statistics
        stats = np.array([2.5, 0.0, 5.0, 2.0])
        monkeypatch.setattr(htests, "_statistics", lambda tables, T: stats)
        monkeypatch.setattr(htests, "_draws",
                            lambda tables, T: np.tile([1.0, 2.0, 3.0, 4.0], (4, 1)))
        out = orthogonal_l2_block(np.ones((4, 32), complex), np.ones((1, 32), complex), M=2)
        assert np.array_equal(out.p_values, [0.5, 1.0, 0.0, 0.75])  # ties count as >=


class TestPortmanteau:
    def test_statistic_formula(self, rng):
        x = rng.standard_normal(128)
        rep = portmanteau_test(x, L=5, M=10)
        grid = dft(x)
        want = 128 * sum(
            abs(weighted_average(grid, lag_weight(j), 0)) ** 2 for j in range(1, 6)
        )
        assert rep.statistic == pytest.approx(want, rel=1e-10)
        assert rep.null_ref.draws.shape == (20,)
        assert np.all(rep.null_ref.draws >= 0)

    def test_pvalue_on_grid(self, rng):
        rep = portmanteau_test(rng.standard_normal(128), L=5, M=10)
        assert round(rep.p_value * 20) == pytest.approx(rep.p_value * 20, abs=1e-12)

    def test_rejection_is_strict(self):
        null = EmpiricalNull(draws=np.arange(1.0, 21.0))
        from orthosample.htests import TestReport

        rep = TestReport(statistic=20.5, p_value=0.0, null_ref=null, method="x")
        assert not rep.reject(0.0)  # p < alpha must be strict
        assert rep.reject(0.05)
        rep = TestReport(statistic=1.5, p_value=0.05, null_ref=null, method="x")
        assert rep.decisions == {0.05: False, 0.10: True}

    def test_scale_invariant_pvalue(self, rng):
        x = rng.standard_normal(100)
        r1 = portmanteau_test(x, L=5, M=12)
        r2 = portmanteau_test(4.2 * x, L=5, M=12)
        assert r1.p_value == r2.p_value
        assert r2.statistic == pytest.approx(4.2**4 * r1.statistic, rel=1e-9)

    def test_selection_used_when_M_missing(self, rng):
        rep = portmanteau_test(rng.standard_normal(100), L=5)
        assert rep.tuning["M_selected"]
        assert 10 <= rep.tuning["M"] <= 24  # feasibility clips {10..30} at T=100

    def test_bad_L_rejected(self, rng):
        with pytest.raises(ShiftRangeError):
            portmanteau_test(rng.standard_normal(30), L=15, M=5)

    def test_statistic_grows_under_alternative(self):
        # under serial correlation the statistic outgrows its null draws
        ratios = {}
        for T in (200, 400):
            vals = []
            for r in range(40):
                x = generate(MODEL_REGISTRY["y1"], T, seed=[44, T, r]).series
                rep = portmanteau_test(x, L=5, M=15)
                vals.append(rep.statistic / np.quantile(rep.null_ref.draws, 0.9))
            ratios[T] = np.mean(vals)
        assert ratios[400] > ratios[200]


class TestLagRows:
    @pytest.mark.parametrize("T", [100, 512, 2**14])
    def test_read_only_fresh_build(self, T):
        rows = htests._lag_rows(T, 5)
        omega = 2.0 * np.pi * np.arange(1, T + 1) / T
        want = np.exp(1j * np.arange(1, 6)[:, None] * omega)
        assert rows.tobytes() == want.tobytes()
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert htests._lag_rows(T, 5.0) is rows

    @pytest.mark.parametrize("L", [0, 50, 5.5])
    def test_bad_L_fails_on_every_call(self, L):
        htests._lag_rows(100, 5)
        for _ in range(2):
            with pytest.raises(ShiftRangeError):
                htests._lag_rows(100, L)

    def test_rows_beyond_the_bound_are_not_kept(self):
        T = 2**15  # 5 rows of 2^15 points: 2.5 MB
        assert not htests._lag_rows(T, 5).flags.writeable
        assert all(key[0] != T for key in htests._lag_rows_on_grid.cache)

    def test_gof_leaves_the_rows_for_portmanteau(self, rng, tmp_path):
        # a gof test divides the shared rows by g; the portmanteau test after
        # it must see the rows a fresh process builds
        x = rng.standard_normal(300)
        np.save(tmp_path / "x.npy", x)
        goodness_of_fit_test(x, lambda om: ar_spectral_density(om, [0.4], 1.0), L=5)
        rep = portmanteau_test(x, L=5)
        here = [rep.statistic.hex(), rep.p_value.hex(), rep.null_ref.draws.tobytes().hex()]
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys, numpy as np; from orthosample import portmanteau_test; "
                  "r = portmanteau_test(np.load(sys.argv[1]), L=5); "
                  "print(r.statistic.hex(), r.p_value.hex(), r.null_ref.draws.tobytes().hex())")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "x.npy")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == here


class TestL2Statistic:
    def test_statistic_and_shifted_draws(self, rng):
        x = rng.standard_normal(90)
        phis = [lag_weight(j) for j in (1, 2)]
        grid = dft(x)
        out = orthogonal_l2_block(grid.coeffs[None], np.stack([p.on_grid(90) for p in phis]),
                                  M=3)
        want = 90 * sum(abs(weighted_average(grid, p, 0)) ** 2 for p in phis)
        assert out.statistics[0] == pytest.approx(want, rel=1e-10)
        sr, si = out.draws[0, 4:6]  # S_R(3), S_I(3)
        wr = 2 * 90 * sum(weighted_average(grid, p, 3).real ** 2 for p in phis)
        wi = 2 * 90 * sum(weighted_average(grid, p, 3).imag ** 2 for p in phis)
        assert sr == pytest.approx(wr, rel=1e-10)
        assert si == pytest.approx(wi, rel=1e-10)


class TestOneLabel:
    """An orthogonal test builds its block's report once, under its own
    method: no relabelled copy runs the report's checks again."""

    @pytest.mark.parametrize("M", [None, 7])
    def test_one_report_per_test(self, rng, monkeypatch, M):
        built = []
        check = htests.BlockReport.__post_init__
        monkeypatch.setattr(htests.BlockReport, "__post_init__",
                            lambda report: built.append(report.method) or check(report))
        x = rng.standard_normal((3, 128))
        htests.portmanteau_block(x, M=M)
        portmanteau_test(x[0], M=M)
        htests.goodness_of_fit_block(x, flat_density, M=M)
        goodness_of_fit_test(x[0], flat_density, M=M)
        orthogonal_l2_block(dft(x[0]).coeffs[None], lag_weight(1).on_grid(128)[None], M=M)
        assert built == ["orthogonal_portmanteau"] * 2 + ["orthogonal_gof"] * 2 + [
            "orthogonal_l2"]


class TestGoodnessOfFit:
    def test_flat_density_matches_portmanteau(self, rng):
        # dividing by a constant density rescales the weights uniformly,
        # which cancels in the empirical p-value
        x = rng.standard_normal(128)
        r1 = portmanteau_test(x, L=5, M=10)
        r2 = goodness_of_fit_test(x, flat_density, L=5, M=10)
        assert r2.p_value == r1.p_value

    def test_nonpositive_density_rejected(self, rng):
        from orthosample.spectral import InvalidInputError

        with pytest.raises(InvalidInputError):
            goodness_of_fit_test(rng.standard_normal(64), lambda om: np.cos(om),
                                 L=3, M=5)

    @pytest.mark.parametrize("T, L", [(64, 1), (128, 5), (1001, 9)])
    def test_weights_from_one_density_evaluation(self, rng, monkeypatch, T, L):
        calls = []

        def density(om):
            calls.append(om.size)
            return ar_spectral_density(om, [0.6], 1.0)

        seen = {}

        def capture(coeffs, weights, *args):
            seen["weights"] = weights
            return orthogonal_l2_block(coeffs, weights, *args)

        monkeypatch.setattr(htests, "orthogonal_l2_block", capture)
        htests.goodness_of_fit_block(rng.standard_normal((2, T)), density, L=L, M=5)
        assert calls == [T]
        expected = np.stack([model_reciprocal_weight(j, density).on_grid(T)
                             for j in range(1, L + 1)])
        assert seen["weights"].dtype == expected.dtype
        assert seen["weights"].shape == expected.shape
        assert np.array_equal(seen["weights"].view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("density, message", [
        (lambda om: np.cos(om), "model density g is not positive and finite on the grid"),
        (lambda om: np.zeros_like(om), "model density g is not positive and finite on the grid"),
        (lambda om: np.where(om > 3.0, np.nan, 1.0),
         "model density g is not positive and finite on the grid"),
        (lambda om: np.full_like(om, 1e-320),  # the reciprocal overflows
         "weight 'lag_exp[1]/g' is non-finite on the size-64 grid: 1/g overflows a float, "
         "the density's scale is too small"),
    ], ids=["nonpositive", "zero", "nan", "overflow"])
    def test_bad_density_raises_one_error(self, rng, density, message):
        T = 64
        with np.errstate(all="ignore"), pytest.raises(InvalidInputError) as block:
            htests.goodness_of_fit_block(rng.standard_normal((3, T)), density, L=3, M=5)
        assert str(block.value) == message
        # the same check on the density's grid values, as the gof_ar1 verb hands them
        coeffs = dft(rng.standard_normal(T)).coeffs[None]
        with np.errstate(all="ignore"), pytest.raises(InvalidInputError) as values:
            htests._goodness_of_fit_coeffs(coeffs, density(grid_frequencies(T)), 3, 5,
                                           range(10, 31), 4)
        assert str(values.value) == message

    def test_L_is_checked_before_the_density(self, rng):
        def density(om):
            raise AssertionError("density evaluated before the L check")

        with pytest.raises(ShiftRangeError, match="L=40 out of range"):
            htests.goodness_of_fit_block(rng.standard_normal((2, 64)), density, L=40, M=5)

    def test_report_fields(self, rng):
        rep = goodness_of_fit_test(rng.standard_normal(150), flat_density, L=5, M=12)
        assert rep.method == "orthogonal_gof"
        assert rep.tuning["M"] == 12
        assert 0.0 <= rep.p_value <= 1.0


class TestBaselines:
    def test_box_pierce_formula(self, rng):
        x = rng.standard_normal(100)
        rep = box_pierce(x, L=3)
        xc = x - x.mean()
        c = [np.dot(xc[: 100 - j], xc[j:]) / 100 for j in range(4)]
        want = 100 / c[0] ** 2 * sum(cj**2 for cj in c[1:])
        assert rep.statistic == pytest.approx(want, rel=1e-10)
        assert rep.p_value == pytest.approx(stats.chi2.sf(want, 3), abs=1e-8)

    def test_robust_portmanteau_formula(self, rng):
        x = rng.standard_normal(80)
        rep = robust_portmanteau(x, L=2)
        xc = x - x.mean()
        sq = xc**2
        want = 0.0
        for j in (1, 2):
            cj = np.dot(xc[: 80 - j], xc[j:]) / 80
            tau = np.dot(sq[j:], sq[: 80 - j]) / (80 - j)
            want += cj**2 / tau
        want *= 80
        assert rep.statistic == pytest.approx(want, rel=1e-10)

    @pytest.mark.slow
    def test_box_pierce_uniform_pvalues_iid(self):
        rng = np.random.default_rng(12)
        pvals = [box_pierce(rng.standard_normal(500), L=5).p_value
                 for _ in range(2000)]
        _, p = stats.kstest(pvals, "uniform")
        assert p > 0.01
