"""End-to-end acceptance gate.

Each test evaluates one numbered criterion, records a single pass/fail line
(shown in the terminal summary), and then asserts.  Monte Carlo targets carry
the stated tolerances; random seeds are fixed so reruns are deterministic.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import circular_autocov, constant_weight, quadratic_form_oracle
from orthosample.equality import equality_test
from orthosample.htests import goodness_of_fit_test, portmanteau_test
from orthosample.models import MODEL_REGISTRY, generate, generate_bivariate
from orthosample.selection import _feasible, select_M
from orthosample.spectral import (
    dft,
    lag_weight,
    orthogonal_sample,
    weighted_average,
    weighted_average_run,
)
from orthosample.variance import variance_estimate

pytestmark = pytest.mark.acceptance


def quiet(msg):
    pass


def ar1_density(phi, sigma=1.0):
    def g(om, phi=phi, sigma=sigma):
        om = np.asarray(om, dtype=float)
        return sigma**2 / (2 * np.pi) / np.abs(1 - phi * np.exp(1j * om)) ** 2

    return g


def mc(rate, nrep, target=None):
    """The Monte Carlo error of a rate in percent over nrep replications, as
    printed text: its binomial SE, taken at the target when there is one,
    and the rate's distance from the target in those SEs."""
    p = (rate if target is None else target) / 100.0
    se = 100.0 * np.sqrt(p * (1.0 - p) / nrep)
    if target is None:
        return f"SE {se:.2f}"
    return f"SE {se:.2f}, z {(rate - target) / se:+.2f}"


def rejection_rate(model, T, nrep, seed, test, alpha=0.05):
    hits = 0
    for r in range(nrep):
        x = generate(MODEL_REGISTRY[model], T, seed=[seed, r]).series
        hits += test(x).p_value < alpha
    return 100.0 * hits / nrep


class TestCriterion1:
    def test_exact_identities(self, criterion_report):
        rng = np.random.default_rng(1001)
        ok, worst = True, 0.0

        # lag functional equals the circular autocovariance at every lag
        for T in (16, 37, 64):
            x = rng.standard_normal(T)
            grid = dft(x)
            for j in range(T):
                err = abs(weighted_average(grid, lag_weight(j), 0).real
                          - circular_autocov(x, j))
                worst = max(worst, err)
        ok &= worst < 1e-10

        # quadratic-form oracle over 100 randomized cases
        qerr = 0.0
        for _ in range(100):
            T = int(rng.integers(8, 65))
            x = rng.standard_normal(T) * rng.uniform(0.5, 3.0)
            j = int(rng.integers(0, 5))
            r = int(rng.integers(0, (T - 1) // 2 + 1))
            a = weighted_average(dft(x), lag_weight(j), r)
            q = quadratic_form_oracle(x, lag_weight(j), r)
            qerr = max(qerr, abs(a - q) / max(1.0, abs(a)))
        ok &= qerr < 1e-8

        # Parseval
        perr = 0.0
        for T in (16, 37, 64):
            x = rng.standard_normal(T) + 2.0
            a = weighted_average(dft(x), constant_weight(1.0), 0)
            xc = x - x.mean()
            perr = max(perr, abs(2 * np.pi * a.real - np.mean(xc**2)))
        ok &= perr < 1e-10

        criterion_report(
            1, ok,
            f"exact identities: autocov err {worst:.2e}, oracle err {qerr:.2e}, "
            f"Parseval err {perr:.2e}",
        )
        assert ok


class TestCriterion2:
    def test_fixed_m_pivot_calibration(self, criterion_report):
        T, M, nrep = 200, 5, 1000
        pvals = {}
        for model in ("pivot_i", "pivot_ii", "pivot_iii"):
            stats_ = np.empty(nrep)
            for r in range(nrep):
                x = generate(MODEL_REGISTRY[model], T, seed=[21, r]).series
                grid = dft(x, demean=False)
                run = weighted_average_run(grid, lag_weight(1), M)
                stats_[r] = run[0].real / np.sqrt(np.mean(np.abs(run[1:]) ** 2))
            pvals[model] = stats.kstest(stats_, "t", args=(2 * M,)).pvalue
        ok = (pvals["pivot_i"] > 0.01 and pvals["pivot_ii"] > 0.01
              and pvals["pivot_iii"] < 0.05)
        criterion_report(
            2, ok,
            "pivot vs t(10) KS p-values: "
            f"(i) {pvals['pivot_i']:.3f} > 0.01, "
            f"(ii) {pvals['pivot_ii']:.3f} > 0.01, "
            f"(iii) {pvals['pivot_iii']:.4f} < 0.05",
        )
        assert ok


@pytest.mark.slow
class TestCriterion3:
    def test_null_levels_T100(self, criterion_report):
        T, nrep = 100, 2000
        port = lambda x: portmanteau_test(x, L=5)
        checks = []
        for model, target, seed in (("normal", 6.52, 31), ("x3", 5.02, 32),
                                    ("x5", 4.26, 33), ("x7", 5.1, 34)):
            rate = rejection_rate(model, T, nrep, seed, port)
            checks.append((f"{model} {rate:.2f} (target {target}, {mc(rate, nrep, target)})",
                           abs(rate - target) <= 2.0))
        from orthosample.htests import box_pierce, robust_portmanteau

        bp = rejection_rate("x5", T, nrep, 35, lambda x: box_pierce(x, L=5))
        checks.append((f"box-pierce x5 {bp:.2f} (>= 18, {mc(bp, nrep, 18.0)})", bp >= 18.0))
        rb = rejection_rate("normal", T, nrep, 36,
                            lambda x: robust_portmanteau(x, L=5))
        checks.append((f"robust normal {rb:.2f} (target 5.42, {mc(rb, nrep, 5.42)})",
                       abs(rb - 5.42) <= 2.0))
        ok = all(c for _, c in checks)
        criterion_report(3, ok, "; ".join(msg for msg, _ in checks))
        assert ok


@pytest.mark.slow
class TestCriterion4:
    def test_null_levels_T500(self, criterion_report):
        T, nrep = 500, 1000
        port = lambda x: portmanteau_test(x, L=5)
        normal = rejection_rate("normal", T, nrep, 41, port)
        x5 = rejection_rate("x5", T, nrep, 42, port)
        from orthosample.htests import box_pierce

        bp = rejection_rate("x5", T, nrep, 43, lambda x: box_pierce(x, L=5))
        ok = (abs(normal - 5.9) <= 2.5 and abs(x5 - 3.76) <= 2.5 and bp >= 40.0)
        criterion_report(
            4, ok,
            f"T=500 levels: normal {normal:.2f} (5.9±2.5, {mc(normal, nrep, 5.9)}), "
            f"x5 {x5:.2f} (3.76±2.5, {mc(x5, nrep, 3.76)}), "
            f"box-pierce x5 {bp:.2f} (>= 40, {mc(bp, nrep, 40.0)})",
        )
        assert ok


@pytest.mark.slow
class TestCriterion5:
    def test_power_ordering(self, criterion_report):
        nrep = 1000
        port = lambda x: portmanteau_test(x, L=5)
        rates = {T: rejection_rate("y1", T, nrep, 50 + T, port)
                 for T in (100, 200, 500)}
        ok = rates[100] < rates[200] < rates[500] and rates[500] >= 90.0
        criterion_report(
            5, ok,
            f"power on the AR(1) alternative: {rates[100]:.1f} ({mc(rates[100], nrep)}) "
            f"< {rates[200]:.1f} ({mc(rates[200], nrep)}) < {rates[500]:.1f} with "
            f"T=500 >= 90 ({mc(rates[500], nrep, 90.0)})",
        )
        assert ok


@pytest.mark.slow
class TestCriterion6:
    def test_gof_levels_and_power(self, criterion_report):
        nrep = 1000
        g_true = ar1_density(0.6)
        gof_true = lambda x: goodness_of_fit_test(x, g_true, L=5)
        null100 = rejection_rate("ar_g_0.6", 100, nrep, 61, gof_true)
        null500 = rejection_rate("ar_g_0.6", 500, nrep, 62, gof_true)
        g_wrong = ar1_density(0.3)
        gof_wrong = lambda x: goodness_of_fit_test(x, g_wrong, L=5)
        power = rejection_rate("ar_g_0.6", 500, nrep, 63, gof_wrong)
        ok = (abs(null100 - 2.32) <= 2.0 and abs(null500 - 5.24) <= 2.0
              and power >= 99.0)
        criterion_report(
            6, ok,
            f"goodness of fit: null T=100 {null100:.2f} (2.32±2, {mc(null100, nrep, 2.32)}), "
            f"T=500 {null500:.2f} (5.24±2, {mc(null500, nrep, 5.24)}), "
            f"power vs phi=0.3 {power:.1f} (>= 99, {mc(power, nrep, 99.0)})",
        )
        assert ok


@pytest.mark.slow
class TestCriterion7:
    def test_equality_level_power_beta(self, criterion_report):
        nrep = 500

        def run_cell(delta, rho, T, seed):
            hits = 0
            for r in range(nrep):
                xo, yo = generate_bivariate(delta, rho, T, seed=[seed, r])
                rep = equality_test(xo.series, yo.series, beta=0.25)
                hits += rep.p_value < 0.05
            return 100.0 * hits / nrep

        level = run_cell(0.0, 0.0, 512, 71)
        power = run_cell(0.1, 0.9, 1024, 72)

        # average estimated transform exponent under the null
        bsum = 0.0
        for r in range(nrep):
            xo, yo = generate_bivariate(0.0, 0.0, 512, seed=[73, r])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = equality_test(xo.series, yo.series)
            bsum += rep.tuning["beta"]
        beta_mean = bsum / nrep

        ok = abs(level - 3.8) <= 2.5 and power >= 97.0 and beta_mean > 0.25
        criterion_report(
            7, ok,
            f"equality test: null level {level:.2f} (3.8±2.5, {mc(level, nrep, 3.8)}), "
            f"power {power:.1f} (>= 97, {mc(power, nrep, 97.0)}), "
            f"mean beta-hat {beta_mean:.3f} (> 0.25)",
        )
        assert ok


@pytest.mark.slow
class TestCriterion8:
    def test_selection_lands_in_range(self, criterion_report):
        from orthosample.models import ModelSpec

        spec = ModelSpec("ar", {"coeffs": (1.5, -0.75), "innovation": "normal"})
        T, p, nrep = 200, 4, 200
        feas = _feasible(T, range(2, 61), p)[0]
        hits = 0
        for r in range(nrep):
            grid = dft(generate(spec, T, seed=[81, r]).series)
            chosen = select_M(grid, lag_weight(1), feas, p).chosen_M
            hits += 5 <= chosen <= 20
        frac = hits / nrep
        ok = frac >= 0.90
        criterion_report(
            8, ok,
            f"selected M in [5, 20] on {100 * frac:.1f}% of {nrep} "
            f"peaked-AR(2) replications (need >= 90%, {mc(100 * frac, nrep, 90.0)})",
        )
        assert ok


@pytest.mark.slow
class TestCriterion9:
    def test_mse_u_shape(self, criterion_report):
        # truth for the Gaussian AR(1): the fourth-order spectrum vanishes,
        # leaving the quadratic spectral integral, evaluated by quadrature
        w = np.linspace(0, 2 * np.pi, 200_001)
        f = 1.0 / (2 * np.pi) / np.abs(1 - 0.6 * np.exp(1j * w)) ** 2
        V0 = np.trapezoid(f**2 * (1 + np.cos(2 * w)), w) / (2 * np.pi)

        T, Ms, nrep = 512, (2, 8, 32, 128), 500
        mse = {}
        errs = {M: [] for M in Ms}
        for r in range(nrep):
            grid = dft(generate(MODEL_REGISTRY["ar_g_0.6"], T, seed=[91, r]).series)
            for M in Ms:
                v = variance_estimate(orthogonal_sample(grid, lag_weight(1), M))
                errs[M].append((v.matrix[0, 0] - V0) ** 2)
        mse = {M: float(np.mean(errs[M])) for M in Ms}
        curve = [mse[M] for M in Ms]
        interior = int(np.argmin(curve))
        ok = 0 < interior < len(Ms) - 1
        criterion_report(
            9, ok,
            "variance-estimator MSE over M=(2,8,32,128): "
            + ", ".join(f"{v:.4f}" for v in curve)
            + f"; interior minimum at M={Ms[interior]}",
        )
        assert ok


class TestCriterion10:
    def test_performance_contract(self, criterion_report):
        rng = np.random.default_rng(10_001)
        x_big = rng.standard_normal(2**20)
        t0 = time.perf_counter()
        sample = orthogonal_sample(dft(x_big), lag_weight(1), 30)
        big_time = time.perf_counter() - t0
        assert sample.M == 30

        sizes = [2**k for k in range(14, 21)]
        times = []
        for T in sizes:
            x = rng.standard_normal(T)
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                orthogonal_sample(dft(x), lag_weight(1), 30)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        ok = big_time < 5.0 and slope < 1.3
        criterion_report(
            10, ok,
            f"orthogonal sample at T=2^20 in {big_time:.2f}s (< 5s); "
            f"log-log runtime slope {slope:.2f} (< 1.3)",
        )
        assert ok
