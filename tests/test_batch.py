"""The batched replication engine: block generators, the vectorised M
search, the 2-D shift table, the blocked equality shifts and the block
statistics against loop and single-series references."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import kernel_spectral_estimate, l2_distance_stat, model_reciprocal_weight
from orthosample import experiments, models, spectral
from orthosample.equality import (
    KernelSpec,
    beta_hat,
    default_bandwidth,
    default_M,
    equality_block,
    equality_test,
    moment_estimates,
)
from orthosample.distributions import student_t
from orthosample.experiments import ExperimentConfig, run_experiment
from orthosample.htests import (
    box_pierce,
    box_pierce_block,
    goodness_of_fit_block,
    goodness_of_fit_test,
    portmanteau_block,
    portmanteau_test,
    robust_portmanteau,
    robust_portmanteau_block,
)
from orthosample.models import (
    BURN_IN,
    MODEL_REGISTRY,
    ModelSpec,
    generate,
    generate_batch,
    generate_bivariate,
    generate_bivariate_batch,
)
from orthosample.selection import _feasible, select_M, select_M_block
from orthosample.spectral import (
    SHIFT_BLOCK_POINTS,
    InvalidInputError,
    _shift_chunks,
    ar_spectral_density,
    dft,
    dft_block,
    lag_weight,
    orthogonal_sample,
    shift_runs,
    weighted_average_run,
)
from orthosample.variance import studentize, variance_estimate


def quiet(msg):
    pass


class TestGenerators:
    @pytest.mark.parametrize("tag", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("T", [100, 500])
    @pytest.mark.parametrize("R", [1, 2, 7])
    def test_batch_columns_equal_single_draws(self, tag, T, R):
        seeds = [[3, 1, r] for r in range(R)]
        block = generate_batch(MODEL_REGISTRY[tag], T, seeds)
        assert block.series.shape == (R, T)
        for j, seed in enumerate(seeds):
            one = generate(MODEL_REGISTRY[tag], T, seed)
            np.testing.assert_array_equal(block.series[j], one.series)
            assert (block.burn_in_used, block.truncation_used) == (
                one.burn_in_used, one.truncation_used)

    @pytest.mark.parametrize("T", [100, 500])
    @pytest.mark.parametrize("R", [1, 2, 7])
    @pytest.mark.parametrize("delta, rho", [(0.0, 0.0), (0.1, 0.9), (0.0, 1.0)])
    def test_bivariate_batch_columns_equal_single_draws(self, T, R, delta, rho):
        seeds = [[4, r] for r in range(R)]
        bx, by = generate_bivariate_batch(delta, rho, T, seeds)
        for j, seed in enumerate(seeds):
            x, y = generate_bivariate(delta, rho, T, seed)
            np.testing.assert_array_equal(bx.series[j], x.series)
            np.testing.assert_array_equal(by.series[j], y.series)

    @pytest.mark.parametrize("R", [1, 5])
    def test_arch_matches_scalar_loop(self, R):
        alpha, T = 0.8, 200
        seeds = [[6, r] for r in range(R)]
        block = generate_batch(ModelSpec("arch1", {"alpha": alpha}), T, seeds).series
        for j, seed in enumerate(seeds):
            z = np.random.default_rng(seed).standard_normal(T + BURN_IN)
            x = np.empty(T + BURN_IN)
            var = 1.0 / (1.0 - alpha)
            for t in range(T + BURN_IN):
                x[t] = math.sqrt(var) * z[t]
                var = 1.0 + alpha * x[t] * x[t]
            np.testing.assert_array_equal(block[j], x[BURN_IN:])

    @pytest.mark.parametrize("R", [1, 5])
    @pytest.mark.parametrize("coeffs", [(), (0.6,), (0.5, -0.3, 0.1)])
    def test_ar_matches_scalar_loop(self, R, coeffs):
        T = 150
        seeds = [[7, r] for r in range(R)]
        spec = ModelSpec("ar", {"coeffs": coeffs, "innovation": "chi2_1"})
        block = generate_batch(spec, T, seeds).series
        for j, seed in enumerate(seeds):
            eps = np.random.default_rng(seed).chisquare(1, T + BURN_IN)
            x = np.zeros(T + BURN_IN)
            for t in range(T + BURN_IN):
                acc = eps[t]
                for m in range(1, min(len(coeffs), t) + 1):
                    acc += coeffs[m - 1] * x[t - m]
                x[t] = acc
            np.testing.assert_array_equal(block[j], x[BURN_IN:])

    def test_bivariate_matches_scalar_loop(self):
        delta, rho, T, seed = 0.1, 0.6, 128, [8, 0]
        rng = np.random.default_rng(seed)
        n = T + BURN_IN
        e, w = rng.standard_normal(n), rng.standard_normal(n)
        eta = rho * e + math.sqrt(1.0 - rho * rho) * w
        x, y = np.zeros(n), np.zeros(n)
        for t in range(n):
            x[t] = 0.8 * x[t - 1] + e[t] if t >= 1 else e[t]
            y[t] = eta[t]
            if t >= 1:
                y[t] += 0.8 * y[t - 1]
            if t >= 2:
                y[t] += delta * y[t - 2]
        xo, yo = generate_bivariate(delta, rho, T, seed)
        np.testing.assert_array_equal(xo.series, x[BURN_IN:])
        np.testing.assert_array_equal(yo.series, y[BURN_IN:])


# every ARCH coefficient and AR coefficient set of the registry, plus the
# bivariate pairs' AR(1) and AR(2) recursions
SHORT_CASES = (
    [("arch", a) for a in sorted({spec.params[k] for spec in MODEL_REGISTRY.values()
                                  for k in ("alpha", "arch_alpha") if k in spec.params})]
    + [("ar", c) for c in sorted({spec.params["coeffs"] for spec in MODEL_REGISTRY.values()
                                  if "coeffs" in spec.params} | {(0.8,), (0.8, 0.0), (0.8, 0.1)})])
SHORT_COLUMNS = 2_500  # per innovation and length: 10^4 columns per parameter set


def _arch_loop(z, alpha):
    """The full ARCH(1) loop of the scalar test, across all columns at once;
    the rows after the burn-in."""
    x = np.empty((len(z) - BURN_IN, z.shape[1]))
    var = 1.0 / (1.0 - alpha)
    for t in range(len(z)):
        xt = np.sqrt(var) * z[t]
        var = 1.0 + alpha * xt * xt
        if t >= BURN_IN:
            x[t - BURN_IN] = xt
    return x


def _ar_loop(e, coeffs):
    """The full AR(p) loop of the scalar test, across all columns at once;
    the rows after the burn-in."""
    x = np.zeros((len(coeffs) + len(e), e.shape[1]))  # p rows of zeros, then x_0 ..
    for t in range(len(coeffs), len(x)):
        acc = e[t - len(coeffs)].copy()
        for m, c in enumerate(coeffs, start=1):
            acc += c * x[t - m]
        x[t] = acc
    return x[len(coeffs) + BURN_IN:]


@pytest.fixture(scope="module")
def innovations():
    rng = np.random.default_rng(2024)
    shape = (500 + BURN_IN, SHORT_COLUMNS)
    return {"normal": rng.standard_normal(shape), "chi2_1": rng.chisquare(1, shape)}


@pytest.fixture
def fallbacks(monkeypatch):
    """The column counts of every call of the full loops, from the short
    recursions' fallback or their block of one."""
    counts = []
    for name in ("_arch_full", "_ar_full"):
        def counted(z, *args, full=getattr(models, name)):
            counts.append(z.shape[1])
            return full(z, *args)
        monkeypatch.setattr(models, name, counted)
    return counts


def _assert_same_bits(got, want, fallbacks):
    differ = np.flatnonzero(np.any(got.view(np.int64) != want.view(np.int64), axis=0))
    assert differ.size == 0, f"{differ.size} columns differ from the full loop: {differ[:20]}"
    # the short start, not the fallback, must be what produced the block
    assert sum(fallbacks) < got.shape[1] // 100, f"{sum(fallbacks)} columns fell back"


class TestShortBurnIn:
    """The certified short recursions against the full 1000-step loops, on
    wide blocks; T = 100 runs on the last 1100 rows of the T = 500 draws."""

    @pytest.mark.parametrize("T", [100, 500])
    @pytest.mark.parametrize("innovation", ["normal", "chi2_1"])
    @pytest.mark.parametrize("recursion, param", SHORT_CASES,
                             ids=[f"{r}{p}".replace(" ", "") for r, p in SHORT_CASES])
    def test_columns_equal_full_loop(self, innovations, fallbacks, recursion, param,
                                     innovation, T):
        z = innovations[innovation][-(T + BURN_IN):]
        short, loop = (models._arch, _arch_loop) if recursion == "arch" else (models._ar, _ar_loop)
        _assert_same_bits(short(z, param), loop(z, param), fallbacks)

    @pytest.mark.parametrize("innovation", ["normal", "chi2_1"])
    def test_arch_variance_bound_holds(self, innovations, innovation):
        z, alpha, s = innovations[innovation], 0.8, BURN_IN - models.ARCH_K
        var = 1.0 / (1.0 - alpha)
        for t in range(s):
            xt = np.sqrt(var) * z[t]
            var = 1.0 + alpha * xt * xt
        assert np.all(var < models._arch_var_bound(z, alpha, s))

    @pytest.mark.parametrize("recursion", ["arch", "ar"])
    def test_uncertified_columns_take_the_full_loop(self, fallbacks, recursion):
        z = np.random.default_rng(5).standard_normal((100 + BURN_IN, 6))
        if recursion == "arch":
            short, loop = (lambda x: models._arch(x, 0.8)), (lambda x: _arch_loop(x, 0.8))
            s = BURN_IN - models.ARCH_K
            z[BURN_IN + 5, 4] = 0.0  # a zero output, whose sign no bracket pins
        else:
            short, loop = (lambda x: models._ar(x, (0.8,))), (lambda x: _ar_loop(x, (0.8,)))
            s = BURN_IN - models._ar_short_steps((0.8,))
            z[BURN_IN + 5, 4] = -(0.8 * loop(z)[4, 4])  # x_{BURN_IN+5} = 0 exactly
        # a spike just before step s puts the upper bracket far above the
        # lower, beyond what K steps of contraction can close
        z[s - 1, 2] = 1e50
        got = short(z.copy())
        assert fallbacks == [2]
        np.testing.assert_array_equal(got, loop(z))
        assert got[5, 4] == 0.0 and abs(got[0, 2]) > 1e3

    @pytest.mark.parametrize("coeffs, R", [((0.8, -0.5), 7), ((0.6,), 1)])
    def test_mixed_signs_and_blocks_of_one_take_the_full_loop(self, fallbacks, coeffs, R):
        e = np.random.default_rng(6).standard_normal((100 + BURN_IN, R))
        got = models._ar(e.copy(), coeffs)
        assert fallbacks == [R]
        np.testing.assert_array_equal(got, _ar_loop(e, coeffs))


def _criterion_loop(run, T, M, p):
    """C(M) for one M, one window at a time."""
    nr = T // p
    sq = np.abs(run) ** 2
    csum = np.cumsum(sq)
    r = np.arange(1, nr + 1)
    windows = (csum[r + M] - csum[r]) * (T / M)
    return float(p / T * np.sum((T * sq[r] / windows - 1.0) ** 2))


class TestSelection:
    @pytest.mark.parametrize("T, search_set", [(100, range(10, 21)), (200, range(10, 31)),
                                               (512, (3, 7, 30, 12))])
    @pytest.mark.parametrize("p", [4, 6])
    def test_curve_equals_per_M_loop(self, T, search_set, p):
        grid = dft(generate(MODEL_REGISTRY["ar_g_0.6"], T, seed=[9, T]).series)
        phi = lag_weight(1)
        sel = select_M(grid, phi, search_set, p)
        run = weighted_average_run(grid, phi, T // p + max(search_set))
        for M in search_set:
            assert sel.criterion_curve[M] == _criterion_loop(run, T, M, p)
            assert select_M(grid, phi, (M,), p).criterion_curve[M] == sel.criterion_curve[M]


class TestShiftTable:
    @pytest.mark.parametrize("T", [64, 100, 512, 4096, 2**14])
    def test_equals_stacked_runs(self, T):
        grid = dft(generate(MODEL_REGISTRY["x5"], T, seed=[10, T]).series)
        phis = [lag_weight(j) for j in range(1, 6)]
        phis.append(model_reciprocal_weight(2, lambda w: 1.5 + np.cos(w)))
        table = shift_runs(grid.coeffs[None], np.stack([phi.on_grid(T) for phi in phis]), 12)[0]
        expected = np.stack([weighted_average_run(grid, phi, 12) for phi in phis])
        np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize("L", [1, 5, 10])
    def test_draws_equal_per_shift_sums(self, L):
        T, M = 256, 12
        x = generate(MODEL_REGISTRY["x5"], T, seed=[15, L]).series
        report = portmanteau_test(x, L=L, M=M)
        runs = np.stack([weighted_average_run(dft(x), lag_weight(j), M)
                         for j in range(1, L + 1)])
        expected = []
        for r in range(1, M + 1):
            col = runs[:, r]
            expected += [2 * T * np.sum(col.real**2), 2 * T * np.sum(col.imag**2)]
        np.testing.assert_array_equal(report.null_ref.draws, expected)
        assert report.statistic == T * np.sum(np.abs(runs[:, 0]) ** 2)


def _equality_loop(x, y, beta):
    """Statistic, moments and p-value of the equality test with one pair of
    kernel estimates per shift."""
    gx, gy = dft(x), dft(y)
    T = gx.T
    M = default_M(T)
    kernel = KernelSpec(default_bandwidth(T))
    stat, _ = l2_distance_stat(kernel_spectral_estimate(gx, kernel),
                               kernel_spectral_estimate(gy, kernel), T)
    draws = []
    for r in range(1, M + 1):
        draws += l2_distance_stat(kernel_spectral_estimate(gx, kernel, r),
                                  kernel_spectral_estimate(gy, kernel, r), T, r)
    mu, var, mu3 = moment_estimates(np.array(draws))
    b = beta_hat(mu, var, mu3) if beta == "estimate" else beta
    mu_b = mu**b + 0.5 * b * (b - 1.0) * mu ** (b - 2.0) * var
    sd_b = b * mu ** (b - 1.0) * np.sqrt(var)
    z = (stat**b - mu_b) / sd_b
    p = float(student_t(2 * M - 1).sf(z / np.sqrt(1.0 + 1.0 / (2.0 * M))))
    return stat, mu, var, mu3, p


class TestEqualityShifts:
    @pytest.mark.parametrize("T", [128, 512, 1024, 2**14])
    @pytest.mark.parametrize("beta", ["estimate", 0.25])
    def test_matches_per_shift_loop(self, T, beta):
        spec = MODEL_REGISTRY["ar_g_0.6"]
        x, y = (generate(spec, T, seed=[11, T, k]).series for k in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            report = equality_test(x, y, beta=beta)
            stat, mu, var, mu3, p = _equality_loop(x, y, beta)
        assert report.statistic == pytest.approx(stat, rel=1e-12)
        assert report.tuning["mu"] == pytest.approx(mu, rel=1e-12)
        assert report.tuning["var"] == pytest.approx(var, rel=1e-12)
        assert report.tuning["mu3"] == pytest.approx(mu3, rel=1e-12,
                                                     abs=1e-12 * var**1.5)
        assert report.p_value == pytest.approx(p, rel=1e-12)


class TestEqualityBlock:
    """Row i of ``equality_block`` reports what ``equality_test`` reports on
    pair i, bit for bit."""

    @pytest.mark.parametrize("T, R", [(T, R) for T in (128, 512, 1024)
                                      for R in (1, 2, 7, 43)] + [(2**14, 2)])
    @pytest.mark.parametrize("beta", ["estimate", 0.25])
    def test_rows_equal_single_tests(self, T, R, beta):
        X, Y = (out.series for out in generate_bivariate_batch(
            0.1, 0.5, T, [[18, T, r] for r in range(R)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            block = equality_block(X, Y, beta=beta)
            singles = [equality_test(x, y, beta=beta) for x, y in zip(X, Y)]
        assert block.statistics.shape == block.p_values.shape == (R,)
        assert list(block.tuning) == list(singles[0].tuning)
        for i, one in enumerate(singles):
            assert block.statistics[i] == one.statistic
            assert block.p_values[i] == one.p_value
            for key, value in one.tuning.items():
                got = block.tuning[key]
                assert (got if np.ndim(got) == 0 else got[i]) == value, key

    @pytest.mark.parametrize("T", [128, 512, 1024])
    @pytest.mark.parametrize("beta", ["estimate", 0.25])
    def test_transform_keeps_the_scalar_bits(self, T, beta):
        """beta-hat, z and the p-value of each row equal the one-pair formulas
        on Python floats, bit for bit (numpy's ``**`` moves some of them)."""
        X, Y = (out.series for out in generate_bivariate_batch(
            0.1, 0.9, T, [[20, T, r] for r in range(43)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            block = equality_block(X, Y, beta=beta)
        t = block.tuning
        M = t["M"]
        for i, stat in enumerate(block.statistics.tolist()):
            mu, var, mu3 = (float(t[k][i]) for k in ("mu", "var", "mu3"))
            b = min(max(1.0 - mu * mu3 / (3.0 * var**2), 1e-3), 1.0) if beta == "estimate" else beta
            mu_b = mu**b + 0.5 * b * (b - 1.0) * mu ** (b - 2.0) * var
            z = (stat**b - mu_b) / (b * mu ** (b - 1.0) * math.sqrt(var))
            p = student_t(2 * M - 1).sf(z / math.sqrt(1.0 + 1.0 / (2.0 * M)))
            assert (t["beta"][i], t["z"][i], block.p_values[i]) == (b, z, p), i

    @pytest.mark.parametrize("T", [128, 512, 1024, 2**14])
    @pytest.mark.parametrize("k", range(3))
    def test_single_pairs_keep_the_per_shift_bits(self, T, k):
        x, y = (out.series for out in generate_bivariate(0.1 * (k - 1), 0.5 * (k % 2), T,
                                                          [99, T, k]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            report = equality_test(x, y)
        stat, (mu, var, mu3) = _roll_reference(x, y)
        assert report.statistic == stat
        assert (report.tuning["mu"], report.tuning["var"], report.tuning["mu3"]) == (mu, var, mu3)

    def test_failing_pair_fails_the_block(self):
        X, Y = (np.array(out.series) for out in generate_bivariate_batch(
            0.0, 0.0, 128, [[19, r] for r in range(3)]))
        Y[1] = X[1]  # a pair with zero distance at every shift: no null variance
        with pytest.raises(ZeroDivisionError):
            equality_test(X[1], Y[1])
        with pytest.raises(ZeroDivisionError):
            equality_block(X, Y)

    def test_shapes_must_match(self):
        X = _series_block(128, 3)
        with pytest.raises(InvalidInputError, match=r"\(3, 128\).*\(2, 128\)"):
            equality_block(X, X[:2])
        with pytest.raises(InvalidInputError, match=r"\(3, 128\).*\(3, 100\)"):
            equality_block(X, X[:, :100])


def _roll_reference(x, y):
    """The statistic and the moments of its draws from one row of shifted
    products per shift, built with np.roll: the per-shift loop that the
    block kernel replaced, kept as the reference for its bits."""
    gx, gy = dft(x), dft(y)
    T = gx.T
    M = default_M(T)
    fw = np.fft.fft(KernelSpec(default_bandwidth(T)).weights(T))
    draws = []
    for r in range(M + 1):
        u = np.empty(T, dtype=complex)
        np.multiply(gx.coeffs, np.conj(np.roll(gx.coeffs, -r)), out=u)
        u -= gy.coeffs * np.conj(np.roll(gy.coeffs, -r))
        np.fft.fft(u, out=u)
        u *= fw
        np.fft.ifft(u, out=u)
        if r == 0:
            stat = 2.0 / T * np.sum(np.abs(u[:T // 2]) ** 2)
        else:
            draws += [2.0 / T * np.sum(u.real**2), 2.0 / T * np.sum(u.imag**2)]
    return stat, moment_estimates(np.array(draws))


class TestShiftChunks:
    @pytest.mark.parametrize("R, L, T", [(1, 1, 64), (43, 7, 128), (5, 13, 1024),
                                         (3, 19, 2**12), (2, 4, 2**14), (3, 2, 2**15),
                                         (1, 28, 2**14), (1, 46, 2**20)])
    def test_chunks_cover_each_cell_once_within_the_limit(self, R, L, T):
        hits = np.zeros((R, L), dtype=int)
        for rows, inner in _shift_chunks(R, L, T):
            cells = hits[rows, inner]
            cells += 1
            # rows of several series share 2^14 points, one series' rows 2^16
            limit = SHIFT_BLOCK_POINTS * (1 if cells.shape[0] > 1 else 4)
            if cells.size * T > limit:
                assert cells.shape == (1, 1) and T > limit
        np.testing.assert_array_equal(hits, 1)

    @pytest.mark.parametrize("R, L, T, shape", [(43, 7, 128, (18, 7)), (3, 19, 2**10, (1, 19)),
                                                (3, 19, 2**12, (1, 16)), (1, 28, 2**14, (1, 4)),
                                                (3, 2, 2**15, (1, 2)), (1, 46, 2**20, (1, 1))])
    def test_first_block_shape(self, R, L, T, shape):
        rows, inner = next(_shift_chunks(R, L, T))
        assert (len(range(R)[rows]), len(range(L)[inner])) == shape


class TestShiftBlockSize:
    """The shift-table twin of ``TestBlocking``: one row per FFT call gives
    the bits of the blocked calls."""

    @pytest.mark.parametrize("T", [1024, 2**13, 2**14])
    @pytest.mark.parametrize("test", ["equality", "portmanteau", "gof"])
    def test_results_do_not_depend_on_block_size(self, test, T, monkeypatch):
        if test == "equality":
            X, Y = (np.array(out.series) for out in generate_bivariate_batch(
                0.1, 0.5, T, [[23, T, r] for r in range(3)]))
            run = lambda: equality_block(X, Y)
        elif test == "portmanteau":
            block = _series_block(T, 3)
            run = lambda: portmanteau_block(block, L=5)
        else:
            block = _series_block(T, 3, "ar_g_0.6")
            run = lambda: goodness_of_fit_block(block, _ar06_density, L=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            whole = run()
            monkeypatch.setattr(spectral, "SHIFT_BLOCK_POINTS", 1)  # blocks of one row
            single = run()

        def bits(report):
            fields = [report.statistics, report.p_values, report.M, report.draws,
                      *report.tuning.values()]
            return list(report.tuning), [None if f is None else np.asarray(f).tobytes()
                                         for f in fields]

        assert bits(single) == bits(whole)


class TestDftChunkSize:
    """The DFT twin of ``TestShiftBlockSize``: a block transformed one row
    per chunk gives the bits of the chunked transform."""

    @pytest.mark.parametrize("T", [100, 1024, 2**14])
    @pytest.mark.parametrize("R", [1, 3, 43])
    @pytest.mark.parametrize("demean", [True, False])
    def test_rows_do_not_depend_on_chunk_size(self, R, T, demean, monkeypatch):
        block = _series_block(T, R)
        whole = dft_block(block, demean)
        monkeypatch.setattr(spectral, "SHIFT_BLOCK_POINTS", 1)  # chunks of one row
        assert dft_block(block, demean).tobytes() == whole.tobytes()


def _traced_peak_mib(run) -> float:
    """The tracemalloc peak of the second of two calls of ``run``, in MiB above
    what was allocated when it started; the first call builds the grid
    constants that stay."""
    run()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTransformMemory:
    """Traced peaks are deterministic for a numpy build, so they are pinned:
    the transforms write into their destination a chunk of rows at a time."""

    def test_equality_block_holds_one_copy_of_its_transforms(self):
        T = 1024
        X, Y = (np.array(out.series) for out in generate_bivariate_batch(
            0.1, 0.5, T, [[7, T, r] for r in range(50)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
            peak = _traced_peak_mib(lambda: equality_block(X, Y))
        # the (100, T + M) shift buffer alone is 1.59 MiB: a second copy
        # of both sides' transforms would pass the bound
        assert peak <= 3.5

    def test_one_row_dft_needs_no_extra_copy(self):
        x = np.random.default_rng(3).standard_normal((1, 2**14))
        # result, phase and one row's work buffer: 0.75 MiB, so one more
        # row-sized copy would pass the bound
        assert _traced_peak_mib(lambda: dft_block(x)) <= 0.88


class TestGeneratorMemory:
    def test_bivariate_block_drops_x_before_y_runs(self):
        T = 1024
        seeds = [[7, T, r] for r in range(100)]
        peak = _traced_peak_mib(lambda: generate_bivariate_batch(0.1, 0.9, T, seeds))
        # both innovation blocks (3.09 MiB), X's bracket (2.04) and X's
        # series (0.78): a second innovation-sized copy (1.54) would pass the bound
        assert peak <= 6.2


class TestBlocking:
    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(experiment="table_uncorrelated_null", models=("x5", "x7"),
                         T=(64,), nrep=7, M=8, seed=12,
                         methods=("orthogonal", "robust")),
        ExperimentConfig(experiment="qq_t10", models=("pivot_iii",), T=(64,),
                         nrep=7, M=5, seed=13),
        ExperimentConfig(experiment="table_equality", T=(128,), nrep=5,
                         rho=0.5, delta=0.1, seed=14, beta=0.5),
    ], ids=["test", "qq", "equality"])
    def test_results_do_not_depend_on_block_size(self, cfg, monkeypatch):
        whole = run_experiment(cfg, progress=quiet)
        monkeypatch.setattr(experiments, "BLOCK_POINTS", 1)  # blocks of one
        single = run_experiment(cfg, progress=quiet)
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        assert strip(whole) == strip(single)
        assert whole.metadata.get("beta_hat_mean") == single.metadata.get("beta_hat_mean")
        for label, (emp, ref) in whole.quantile_pairs.items():
            np.testing.assert_array_equal(emp, single.quantile_pairs[label][0])
            np.testing.assert_array_equal(ref, single.quantile_pairs[label][1])


def _series_block(T, R, tag="x5"):
    seeds = [[16, T, r] for r in range(R)]
    return generate_batch(MODEL_REGISTRY[tag], T, seeds).series


def _ar06_density(w):
    return ar_spectral_density(w, [0.6], 1.0)


def _t10_pivot(x, M):
    """The qq_t10 statistic of one series, from the single-series functions:
    Re A(e^{i.}; 0) of the raw transform, studentized against zero."""
    sample = orthogonal_sample(dft(x, demean=False), lag_weight(1), M)
    return studentize(sample.base.real, 0.0, variance_estimate(sample), x.size).statistic


class TestBlockStatistics:
    """Row i of every block kernel reports what the single-series function
    reports on series i."""

    @pytest.mark.parametrize("T", [100, 200, 500])
    @pytest.mark.parametrize("R", [1, 2, 7, 59])
    @pytest.mark.parametrize("M", [None, 8])
    @pytest.mark.parametrize("test", ["portmanteau", "gof"])
    def test_orthogonal_rows_equal_single_tests(self, test, M, R, T):
        block = _series_block(T, R, "ar_g_0.6" if test == "gof" else "x5")
        if test == "gof":
            out = goodness_of_fit_block(block, _ar06_density, L=5, M=M)
            singles = [goodness_of_fit_test(x, _ar06_density, L=5, M=M) for x in block]
        else:
            out = portmanteau_block(block, L=5, M=M)
            singles = [portmanteau_test(x, L=5, M=M) for x in block]
        for i, one in enumerate(singles):
            assert out.statistics[i] == one.statistic
            assert out.p_values[i] == one.p_value
            assert out.M[i] == one.tuning["M"]
            np.testing.assert_array_equal(out.draws[i, :2 * out.M[i]], one.null_ref.draws)

    @pytest.mark.parametrize("T", [100, 200, 500])
    @pytest.mark.parametrize("R", [1, 2, 7, 59])
    def test_qq_pivot_rows_equal_single_series(self, R, T):
        block = _series_block(T, R, "pivot_ii")
        cfg = ExperimentConfig(experiment="qq_t10", models=("pivot_ii",), T=(T,), M=5)
        got = experiments.METHODS["qq_t10"].values(cfg, block)
        assert got == [_t10_pivot(x, 5) for x in block]

    @pytest.mark.parametrize("T", [100, 200, 500])
    @pytest.mark.parametrize("R", [1, 2, 7, 59])
    @pytest.mark.parametrize("kernel, single", [(box_pierce_block, box_pierce),
                                                (robust_portmanteau_block, robust_portmanteau)])
    def test_chi_square_rows_match_single_tests(self, kernel, single, R, T):
        block = _series_block(T, R, "t5")
        out = kernel(block, L=5)
        for i, x in enumerate(block):
            one = single(x, L=5)
            assert out.statistics[i] == pytest.approx(one.statistic, rel=1e-13)
            assert out.p_values[i] == pytest.approx(one.p_value, rel=1e-13)

    def test_dft_rows_equal_single_transforms(self):
        block = _series_block(200, 7)
        for demean in (True, False):
            coeffs = dft_block(block, demean)
            for i, x in enumerate(block):
                np.testing.assert_array_equal(coeffs[i], dft(x, demean).coeffs)

    def test_shift_runs_rows_equal_single_runs(self):
        T = 256
        block = _series_block(T, 7)
        phis = [lag_weight(1), model_reciprocal_weight(2, _ar06_density)]
        runs = shift_runs(dft_block(block), np.stack([phi.on_grid(T) for phi in phis]), 40)
        for i, x in enumerate(block):
            for j, phi in enumerate(phis):
                np.testing.assert_array_equal(runs[i, j], weighted_average_run(dft(x), phi, 40))

    def test_unsorted_search_set_with_duplicates(self):
        T, p = 200, 4
        search_set = (24, 12, 30, 12, 10, 24, 17)
        block = _series_block(T, 59, "ar_g_0.6")
        feasible = _feasible(T, search_set, p)[0]
        runs = shift_runs(dft_block(block), lag_weight(1).on_grid(T)[None],
                          T // p + max(feasible))[:, 0]
        chosen, curves, members = select_M_block(runs, T, feasible, p)
        assert members == tuple(sorted(set(feasible)))
        out = portmanteau_block(block, L=5, search_set=search_set, p=p)
        for i, x in enumerate(block):
            sel = select_M(dft(x), lag_weight(1), feasible, p)
            assert chosen[i] == out.M[i] == sel.chosen_M
            assert dict(zip(members, curves[i].tolist())) == sel.criterion_curve

    def test_constant_series_fails_its_box_pierce_cell(self, monkeypatch):
        real = experiments.generate_batch

        def with_constant_row(spec, T, seeds):
            sim = real(spec, T, seeds)
            series = sim.series.copy()
            series[-1] = 1.5
            return dataclasses.replace(sim, series=series)

        monkeypatch.setattr(experiments, "generate_batch", with_constant_row)
        cfg = ExperimentConfig(experiment="table_uncorrelated_null", models=("normal",),
                               T=(64,), nrep=5, M=8, seed=17,
                               methods=("box_pierce", "orthogonal"))
        table = run_experiment(cfg, progress=quiet)
        rates = {(r.method, r.alpha): r.rate for r in table.rows}
        assert all(np.isnan(rates["box_pierce", a]) for a in cfg.alphas)
        assert not any(np.isnan(rates["orthogonal", a]) for a in cfg.alphas)
