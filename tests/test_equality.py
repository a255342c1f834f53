"""Two-sample spectral equality test."""

import warnings

import numpy as np
import pytest

from orthosample import equality
from orthosample.equality import (
    KernelSpec,
    beta_hat,
    default_bandwidth,
    default_M,
    equality_test,
    kernel_spectral_estimate,
    l2_distance_stat,
    moment_estimates,
)
from orthosample.models import generate_bivariate, iid_normal, generate
from orthosample.spectral import InvalidInputError, ShiftRangeError, dft


class TestKernelSpec:
    def test_bandwidth_domain(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=1.0)

    def test_weights_sum_to_one(self):
        for T, b in [(128, 0.1), (512, 0.1), (300, 0.15)]:
            w = KernelSpec(bandwidth=b).weights(T)
            assert w.sum() == pytest.approx(1.0, abs=2.0 / (b * T))
            assert np.all(w >= 0)

    def test_too_few_grid_points_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec(bandwidth=0.01).weights(100)  # b*T < 4


class TestWindowTransform:
    @pytest.mark.parametrize("T", [100, 512, 2**14])
    def test_read_only_fresh_build(self, T):
        kernel = KernelSpec(bandwidth=default_bandwidth(T))
        fw = equality._window_transform(kernel, T)
        assert fw.tobytes() == np.fft.fft(kernel.weights(T)).tobytes()
        assert not fw.flags.writeable
        with pytest.raises(ValueError):
            fw[0] = 0

    def test_one_home_for_test_and_estimate(self, rng):
        x, y = rng.standard_normal((2, 256))
        equality.equality_test(x, y, b=0.125)
        assert list(equality._window_transform.cache) == [(KernelSpec(0.125), 256)]
        kernel_spectral_estimate(dft(x), KernelSpec(bandwidth=0.2))
        assert list(equality._window_transform.cache) == [(KernelSpec(0.2), 256)]

    def test_too_narrow_window_fails_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="b\\*T >= 4"):
                equality._window_transform(KernelSpec(bandwidth=0.01), 100)


class TestKernelEstimate:
    def test_white_noise_level(self):
        # for iid data the smoothed estimate approaches sigma^2 / (2 pi)
        x = generate(iid_normal(), 4096, seed=3).series
        f = kernel_spectral_estimate(dft(x), KernelSpec(bandwidth=0.1)).real
        assert np.mean(f) == pytest.approx(1.0 / (2 * np.pi), rel=0.05)
        assert np.std(f) < 0.1 / (2 * np.pi)

    def test_matches_direct_windowed_sum(self, rng):
        # O(T^2) oracle: average J_k conj(J_{k+r}) over the cyclic window
        T = 64
        x = rng.standard_normal(T)
        grid = dft(x)
        b = 0.15
        kernel = KernelSpec(bandwidth=b)
        for r in (0, 2):
            got = kernel_spectral_estimate(grid, kernel, r)
            u = grid.coeffs * np.conj(grid.shifted(r))
            want = np.empty(T, dtype=complex)
            for l in range(1, T + 1):
                acc = 0.0 + 0.0j
                for k in range(1, T + 1):
                    d = min((l - k) % T, (k - l) % T) / T
                    if d / b <= 1.0:
                        acc += 0.5 * u[k - 1]
                want[l - 1] = acc / (b * T)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shift_range(self, rng):
        grid = dft(rng.standard_normal(50))
        with pytest.raises(ShiftRangeError):
            kernel_spectral_estimate(grid, KernelSpec(bandwidth=0.2), r=25)


class TestDistanceStat:
    def test_zero_for_identical_inputs(self, rng):
        f = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        s, zero = l2_distance_stat(f, f, 100, r=0)
        assert s == 0.0 and zero == 0.0

    def test_split_into_real_imag_parts(self, rng):
        # a difference with the mirror symmetry of a real series' estimate,
        # d_{T-j} = conj(d_j), zero at j = T/2 and j = T: the half-range
        # statistic is then half the full-period real plus imaginary sums
        T = 64
        d = np.zeros(T, dtype=complex)
        j = np.arange(1, T // 2)
        d[j - 1] = rng.standard_normal(j.size) + 1j * rng.standard_normal(j.size)
        d[T - j - 1] = np.conj(d[j - 1])
        fy = rng.standard_normal(T) + 1j * rng.standard_normal(T)
        fx = fy + d
        s, _ = l2_distance_stat(fx, fy, T, r=0)
        sr, si = l2_distance_stat(fx, fy, T, r=1)
        assert s == pytest.approx((sr + si) / 2, rel=1e-10)

    def test_shifted_estimate_symmetry_and_full_period_sums(self, rng):
        # f_hat(omega_{-l}; r) = f_hat(omega_{l-r}; r) for a real series, so
        # a shifted estimate is symmetric about -omega_r / 2, not about 0,
        # and the r > 0 distances must sum over the whole grid
        T = 64
        kernel = KernelSpec(bandwidth=0.15)
        gx, gy = dft(rng.standard_normal(T)), dft(rng.standard_normal(T))
        l = np.arange(1, T + 1)
        for r in (0, 1, 2, 5):
            fx = kernel_spectral_estimate(gx, kernel, r)
            fy = kernel_spectral_estimate(gy, kernel, r)
            # index of omega_q is (q - 1) mod T
            np.testing.assert_allclose(fx[(-l - 1) % T], fx[(l - r - 1) % T],
                                       rtol=0, atol=1e-12)
            if r > 0:
                d = fx - fy
                sr, si = l2_distance_stat(fx, fy, T, r=r)
                assert sr == pytest.approx(2.0 / T * np.sum(d.real**2), rel=1e-12)
                assert si == pytest.approx(2.0 / T * np.sum(d.imag**2), rel=1e-12)


class TestMoments:
    def test_moment_estimates(self):
        draws = np.array([1.0, 2.0, 3.0, 6.0])
        mu, var, mu3 = moment_estimates(draws)
        assert mu == 3.0
        assert var == pytest.approx(np.mean((draws - 3.0) ** 2))
        assert mu3 == pytest.approx(np.mean((draws - 3.0) ** 3))

    def test_beta_hat_formula_and_clamp(self):
        assert beta_hat(2.0, 1.0, 0.3) == pytest.approx(1 - 2.0 * 0.3 / 3.0)
        with pytest.warns(RuntimeWarning):
            assert beta_hat(2.0, 1.0, -5.0) == 1.0  # raw value above 1
        with pytest.warns(RuntimeWarning):
            assert beta_hat(2.0, 0.1, 5.0) == pytest.approx(1e-3)  # raw value below 0
        with pytest.raises(ZeroDivisionError):
            beta_hat(1.0, 0.0, 1.0)


class TestDefaults:
    def test_table_values(self):
        assert default_M(128) == 6
        assert default_M(512) == 12
        assert default_M(1024) == 18
        assert default_bandwidth(256) == 0.15
        assert default_bandwidth(512) == 0.1

    def test_off_table_line_misses_the_1024_entry(self):
        # round(6 + 3 (log2 T - 7)) gives 15 near T = 1024, so the default
        # steps up to the table's 18 at 1024 and back down after it
        assert [default_M(T) for T in (1023, 1024, 1025, 2048)] == [15, 18, 15, 18]


class TestEqualityTest:
    def test_symmetry(self):
        xo, yo = generate_bivariate(0.1, 0.3, 256, seed=10)
        r1 = equality_test(xo.series, yo.series)
        r2 = equality_test(yo.series, xo.series)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-9)

    @pytest.mark.parametrize("T", [128, 1024, 2**13])
    def test_swapping_the_series_keeps_every_bit(self, T):
        # the difference of the two sides' products changes sign exactly, and
        # the statistic and draws are sums of squares; from T = 2^14 the two
        # sides' products are formed with their operands in different orders
        # (see ``equality._shift_products``), so only T < 2^14 is pinned
        for k in range(4):
            xo, yo = generate_bivariate(0.05 * (k - 1), 0.3 * (k % 2), T, seed=[5, T, k])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
                r1 = equality_test(xo.series, yo.series)
                r2 = equality_test(yo.series, xo.series)
            assert (r1.statistic, r1.p_value, r1.tuning) == (r2.statistic, r2.p_value, r2.tuning)

    def test_scale_equivariance_beta_one(self):
        xo, yo = generate_bivariate(0.0, 0.0, 256, seed=11)
        c = 2.0
        r1 = equality_test(xo.series, yo.series, beta=1.0)
        r2 = equality_test(c * xo.series, c * yo.series, beta=1.0)
        assert r2.statistic == pytest.approx(c**4 * r1.statistic, rel=1e-9)
        assert r2.p_value == pytest.approx(r1.p_value, rel=1e-9)

    def test_report_contents(self):
        xo, yo = generate_bivariate(0.0, 0.0, 512, seed=12)
        rep = equality_test(xo.series, yo.series)
        assert rep.method == "spectral_equality"
        assert rep.statistic >= 0
        assert 0.0 <= rep.p_value <= 1.0
        assert list(rep.tuning) == ["M", "b", "beta", "z", "mu", "var", "mu3"]
        assert type(rep.tuning["M"]) is int
        assert all(type(v) is float for k, v in rep.tuning.items() if k != "M")
        assert rep.tuning["M"] == 12
        assert rep.tuning["b"] == 0.1
        assert 0.0 < rep.tuning["beta"] <= 1.0
        assert rep.tuning["var"] >= 0

    def test_length_mismatch_and_bad_beta(self):
        xo, yo = generate_bivariate(0.0, 0.0, 128, seed=13)
        with pytest.raises(InvalidInputError):
            equality_test(xo.series, yo.series[:100])
        with pytest.raises(InvalidInputError):
            equality_test(xo.series, yo.series, beta=1.5)

    @pytest.mark.slow
    def test_null_draw_mean_matches_statistic_mean(self):
        # the shifted distances share the statistic's mean under the null
        stats_, mus = [], []
        for r in range(500):
            xo, yo = generate_bivariate(0.0, 0.0, 512, seed=[14, r])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = equality_test(xo.series, yo.series)
            stats_.append(rep.statistic)
            mus.append(rep.tuning["mu"])
        stats_ = np.asarray(stats_)
        se = stats_.std() / np.sqrt(stats_.size)
        assert abs(stats_.mean() - np.mean(mus)) < 3 * se
