"""Exact identities and properties of the frequency-grid core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circular_autocov, constant_weight, quadratic_form_oracle
from orthosample import equality, htests
from orthosample.spectral import (
    GRID_CONSTANT_BYTES,
    InvalidInputError,
    ShiftRangeError,
    as_series,
    dft,
    dft_block,
    grid_constant,
    grid_frequencies,
    lag_weight,
    orthogonal_sample,
    weighted_average,
    weighted_average_run,
)


def naive_dft(x, demean=True):
    """O(T^2) direct-sum transform used as the oracle for the FFT path."""
    x = np.asarray(x, dtype=float)
    T = x.size
    if demean:
        x = x - x.mean()
    omega = grid_frequencies(T)
    t = np.arange(1, T + 1)
    return (x[None, :] * np.exp(1j * np.outer(omega, t))).sum(axis=1) / np.sqrt(
        2 * np.pi * T
    )


series_st = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=8, max_size=64
)


class TestDft:
    @pytest.mark.parametrize("T", [8, 16, 37, 64, 101])
    def test_matches_direct_sum(self, rng, T):
        x = rng.standard_normal(T)
        for demean in (True, False):
            got = dft(x, demean=demean).coeffs
            want = naive_dft(x, demean=demean)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_hermitian_symmetry(self, rng):
        # J(omega_{T-k}) = conj(J(omega_k)) on real input
        T = 37
        grid = dft(rng.standard_normal(T))
        scale = np.max(np.abs(grid.coeffs))
        for k in range(1, T):
            assert abs(grid.coeffs[T - k - 1] - np.conj(grid.coeffs[k - 1])) < 1e-12 * scale

    def test_demeaned_zero_frequency_vanishes(self, rng):
        grid = dft(rng.standard_normal(40) + 3.0)
        assert abs(grid.coeffs[-1]) < 1e-12
        assert grid.demeaned

    def test_shifted_wraps(self, rng):
        grid = dft(rng.standard_normal(12))
        np.testing.assert_array_equal(grid.shifted(3), np.roll(grid.coeffs, -3))
        np.testing.assert_array_equal(grid.shifted(0), grid.coeffs)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            as_series([1.0])
        with pytest.raises(InvalidInputError):
            as_series([1.0, np.nan, 2.0])
        with pytest.raises(InvalidInputError, match=r"\(50, 2\)"):
            as_series(np.zeros((50, 2)))
        with pytest.raises(InvalidInputError):
            dft([np.inf, 0.0, 1.0])


class TestGridConstants:
    @pytest.mark.parametrize("T", [100, 512, 2**14])
    def test_dft_block_keeps_its_bits(self, rng, T):
        # the reference: phase and wrap index built inline on every call
        x = rng.standard_normal((3, T))
        xc = x - x.mean(axis=1, keepdims=True)
        k = np.arange(1, T + 1)
        want = np.exp(2j * np.pi * k / T) * (T * np.fft.ifft(xc, axis=-1))[:, k % T]
        want *= 1.0 / np.sqrt(2.0 * np.pi * T)
        got = dft_block(x)
        assert got.tobytes() == want.tobytes()
        got[0, 0] = 0  # the coefficients are the caller's own array

    def test_long_grid_is_not_kept(self):
        # dft_block builds its phase on every call, and no grid constant of
        # a T = 2^20 call stays behind
        T = 2**20
        dft(np.random.default_rng(5).standard_normal(T))
        kernel = equality.KernelSpec(bandwidth=equality.default_bandwidth(T))
        assert not equality._window_transform(kernel, T).flags.writeable
        for constant in (htests._lag_rows_on_grid, equality._window_transform):
            assert all(T not in key for key in constant.cache)

    def test_cache_keeps_the_last_build(self):
        built = []

        @grid_constant
        def ramp(n):
            built.append(n)
            return np.arange(float(n))

        first = ramp(3)
        assert ramp(3) is first and built == [3]
        ramp(4)
        assert list(ramp.cache) == [(4,)]
        assert ramp(3) is not first and built == [3, 4, 3]

    def test_oversized_result_is_returned_read_only_but_not_kept(self):
        @grid_constant
        def big(n):
            return np.zeros(n, dtype=complex)

        n = GRID_CONSTANT_BYTES // 16 + 1
        out = big(n)
        assert out.shape == (n,) and not out.flags.writeable
        assert big.cache == {}
        assert big(n) is not out
        small = big(4)
        big(n)  # an oversized build leaves the kept entry in place
        assert big(4) is small


class TestWeightedAverage:
    def test_parseval(self, rng):
        # 2*pi * A(1; 0) equals the mean of the squared demeaned series
        for T in (16, 37, 64):
            x = rng.standard_normal(T) * 2.0 + 1.0
            a = weighted_average(dft(x), constant_weight(1.0), 0)
            xc = x - x.mean()
            assert abs(2 * np.pi * a.real - np.mean(xc**2)) < 1e-10
            assert abs(a.imag) < 1e-12

    def test_lag_zero_functional_is_real(self, rng):
        grid = dft(rng.standard_normal(50))
        for j in range(6):
            assert abs(weighted_average(grid, lag_weight(j), 0).imag) < 1e-10

    def test_equals_circular_autocov(self, rng):
        for T in (16, 37, 64):
            x = rng.standard_normal(T)
            grid = dft(x)
            for j in range(T):
                a = weighted_average(grid, lag_weight(j), 0)
                assert abs(a.real - circular_autocov(x, j)) < 1e-10

    def test_run_matches_pointwise(self, rng):
        x = rng.standard_normal(61)
        grid = dft(x)
        phi = lag_weight(2)
        run = weighted_average_run(grid, phi, 29)
        for r in range(30):
            assert abs(run[r] - weighted_average(grid, phi, r)) < 1e-12

    def test_quadratic_form_oracle(self, rng):
        for T in (16, 31, 64):
            x = rng.standard_normal(T)
            grid = dft(x)
            for phi in (lag_weight(1), lag_weight(3), constant_weight(0.5)):
                for r in (0, 1, T // 4):
                    a = weighted_average(grid, phi, r)
                    q = quadratic_form_oracle(x, phi, r)
                    assert abs(a - q) <= 1e-8 * max(1.0, abs(a))

    def test_shift_range_enforced(self, rng):
        grid = dft(rng.standard_normal(20))
        with pytest.raises(ShiftRangeError):
            weighted_average(grid, lag_weight(1), 10)  # r == T/2
        with pytest.raises(ShiftRangeError):
            weighted_average(grid, lag_weight(1), -1)

    @settings(max_examples=40, deadline=None)
    @given(series_st, st.integers(min_value=0, max_value=3))
    def test_scaling_is_quadratic(self, values, r):
        x = np.asarray(values)
        if np.ptp(x) == 0:
            x = x + np.arange(x.size) * 0.1
        c = 2.5
        a1 = weighted_average(dft(x), lag_weight(1), r)
        a2 = weighted_average(dft(c * x), lag_weight(1), r)
        assert abs(a2 - c**2 * a1) <= 1e-9 * max(1.0, abs(a1))

    @settings(max_examples=40, deadline=None)
    @given(series_st, st.integers(min_value=0, max_value=3))
    def test_negation_invariance(self, values, r):
        x = np.asarray(values)
        a1 = weighted_average(dft(x), lag_weight(2), r)
        a2 = weighted_average(dft(-x), lag_weight(2), r)
        assert abs(a2 - a1) <= 1e-12 * max(1.0, abs(a1))


class TestOrthogonalSample:
    def test_sample_layout(self, rng):
        grid = dft(rng.standard_normal(64))
        sample = orthogonal_sample(grid, lag_weight(1), 10)
        assert sample.M == 10
        assert sample.T == 64
        assert sample.base == pytest.approx(
            complex(weighted_average(grid, lag_weight(1), 0)), abs=1e-12
        )
        for r in range(1, 11):
            assert sample.shifted[r - 1] == pytest.approx(
                complex(weighted_average(grid, lag_weight(1), r)), abs=1e-12
            )

    def test_m_bounds(self, rng):
        grid = dft(rng.standard_normal(20))
        with pytest.raises(ShiftRangeError):
            orthogonal_sample(grid, lag_weight(1), 0)
        with pytest.raises(ShiftRangeError):
            orthogonal_sample(grid, lag_weight(1), 10)


class TestWeights:
    def test_non_finite_weight_rejected(self):
        from orthosample.spectral import WeightFunction

        bad = WeightFunction(lambda w: 1.0 / (w - w[0]), descriptor="bad")
        with np.errstate(divide="ignore"):  # the division by zero is the point
            with pytest.raises(InvalidInputError):
                bad.on_grid(16)

    def test_lag_weight_values(self):
        w = lag_weight(2)(np.array([0.5, 1.0]))
        np.testing.assert_allclose(w, np.exp(1j * 2 * np.array([0.5, 1.0])))

    @pytest.mark.parametrize("l", [1, 17, 64, 129, 256])
    def test_kernel_weight_matches_box_smoother(self, rng, l):
        # 2 pi A(W((. - omega_l)/(2 pi b))/(2 pi b); 0) is the box-window
        # estimate f_hat(omega_l); b T = 18.25 keeps every grid point off the
        # window's edge
        from oracles import kernel_spectral_estimate, kernel_weight
        from orthosample.equality import KernelSpec

        T, b = 256, 0.0713
        grid = dft(rng.standard_normal(T))
        box = lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0)
        got = 2 * np.pi * weighted_average(grid, kernel_weight(box, 2 * np.pi * b,
                                                               2 * np.pi * l / T))
        want = kernel_spectral_estimate(grid, KernelSpec(b))[l - 1]
        assert abs(got - want) <= 1e-14 * abs(want)
