"""Variance estimation, studentization and the Hotelling extension."""

import numpy as np
import pytest
from scipy import stats

from orthosample import distributions as dist
from orthosample.spectral import (
    ShiftRangeError,
    dft,
    dft_block,
    lag_weight,
    orthogonal_sample,
    shift_runs,
    weighted_average,
)
from orthosample.variance import (
    DegenerateVarianceError,
    covariance_matrix_estimate,
    hotelling_test,
    studentize,
    studentize_block,
    variance_block,
    variance_estimate,
    variance_estimate_at,
)


def make_sample(rng, T=128, M=10, j=1):
    return orthogonal_sample(dft(rng.standard_normal(T)), lag_weight(j), M)


class TestVarianceEstimate:
    def test_formula(self, rng):
        sample = make_sample(rng)
        v = variance_estimate(sample)
        want = sample.T / sample.M * np.sum(np.abs(sample.shifted) ** 2)
        assert v.value == pytest.approx(want, rel=1e-12)
        assert v.M == sample.M and v.T == sample.T and v.shift_origin == 0

    def test_nonnegative_and_negation_invariant(self, rng):
        x = rng.standard_normal(100)
        v1 = variance_estimate(orthogonal_sample(dft(x), lag_weight(1), 8))
        v2 = variance_estimate(orthogonal_sample(dft(-x), lag_weight(1), 8))
        assert v1.value >= 0
        assert v1.value == pytest.approx(v2.value, rel=1e-12)

    def test_quartic_scaling(self, rng):
        x = rng.standard_normal(100)
        c = 1.7
        v1 = variance_estimate(orthogonal_sample(dft(x), lag_weight(1), 8))
        v2 = variance_estimate(orthogonal_sample(dft(c * x), lag_weight(1), 8))
        assert v2.value == pytest.approx(c**4 * v1.value, rel=1e-10)

    def test_windowed_variant(self, rng):
        x = rng.standard_normal(120)
        grid = dft(x)
        v = variance_estimate_at(grid, lag_weight(1), r0=5, M=7)
        want = grid.T / 7 * sum(
            abs(weighted_average(grid, lag_weight(1), s)) ** 2 for s in range(6, 13)
        )
        assert v.value == pytest.approx(want, rel=1e-10)
        assert v.shift_origin == 5

    def test_window_bounds(self, rng):
        grid = dft(rng.standard_normal(40))
        with pytest.raises(ShiftRangeError):
            variance_estimate_at(grid, lag_weight(1), r0=15, M=5)  # reaches T/2
        with pytest.raises(ShiftRangeError):
            variance_estimate_at(grid, lag_weight(1), r0=0, M=0)


class TestStudentize:
    def test_scale_invariance(self, rng):
        x = rng.standard_normal(200)
        c = 3.0
        grid1, grid2 = dft(x), dft(c * x)
        a1 = weighted_average(grid1, lag_weight(1), 0).real
        a2 = weighted_average(grid2, lag_weight(1), 0).real
        v1 = variance_estimate(orthogonal_sample(grid1, lag_weight(1), 10))
        v2 = variance_estimate(orthogonal_sample(grid2, lag_weight(1), 10))
        target = 0.03
        r1 = studentize(a1, target, v1, 200)
        r2 = studentize(a2, c**2 * target, v2, 200)
        assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-9)

    def test_report_fields(self, rng):
        sample = make_sample(rng, M=12)
        v = variance_estimate(sample)
        rep = studentize(sample.base.real, 0.0, v, sample.T, ci_levels=(0.9, 0.95))
        assert rep.df == 24
        assert 0.0 <= rep.p_value <= 1.0
        lo, hi = rep.confidence_intervals[0.95]
        assert lo < sample.base.real < hi
        lo90, hi90 = rep.confidence_intervals[0.9]
        assert lo < lo90 < hi90 < hi

    def test_one_sided_halves_central_pvalue(self, rng):
        sample = make_sample(rng, M=9)
        v = variance_estimate(sample)
        two = studentize(sample.base.real, 0.0, v, sample.T)
        one = studentize(sample.base.real, 0.0, v, sample.T, one_sided=True)
        if two.statistic > 0:
            assert one.p_value == pytest.approx(two.p_value / 2, rel=1e-9)

    def test_degenerate_series_raises(self):
        x = np.ones(50)  # constant: demeaned transform is identically zero
        sample = orthogonal_sample(dft(x), lag_weight(1), 5)
        v = variance_estimate(sample)
        with pytest.raises(DegenerateVarianceError):
            studentize(0.0, 0.0, v, 50)


class TestBlockKernels:
    """Each row of the block kernels is the single-series estimate or
    statistic of its series, bit for bit."""

    def test_variance_rows_equal_single_estimates(self, rng):
        T, M, r0 = 128, 10, 7
        block = rng.standard_normal((20, T))
        runs = shift_runs(dft_block(block), lag_weight(2).on_grid(T)[None], r0 + M)[:, 0]
        at_zero = variance_block(runs[:, 1:M + 1], T)
        at_r0 = variance_block(runs[:, r0 + 1:], T)
        for i, x in enumerate(block):
            grid = dft(x)
            assert at_zero[i] == variance_estimate(
                orthogonal_sample(grid, lag_weight(2), M)).value
            assert at_r0[i] == variance_estimate_at(grid, lag_weight(2), r0, M).value

    def test_statistic_rows_equal_studentize(self, rng):
        T, M = 100, 8
        block = rng.standard_normal((20, T))
        runs = shift_runs(dft_block(block), lag_weight(1).on_grid(T)[None], M)[:, 0]
        stats, scales = studentize_block(runs[:, 0].real, 0.1, variance_block(runs[:, 1:], T), T)
        q = dist.student_t(2 * M).quantile(0.975)
        for i, x in enumerate(block):
            sample = orthogonal_sample(dft(x), lag_weight(1), M)
            rep = studentize(sample.base.real, 0.1, variance_estimate(sample), T)
            assert stats[i] == rep.statistic
            assert rep.confidence_intervals[0.95] == (sample.base.real - q * scales[i],
                                                      sample.base.real + q * scales[i])

    def test_one_zero_variance_row_fails_the_block(self):
        with pytest.raises(DegenerateVarianceError):
            studentize_block(np.array([0.3, 0.0]), 0.0, np.array([1.2, 0.0]), 50)


class TestCovarianceMatrix:
    def test_reduces_to_scalar_when_p1(self, rng):
        sample = make_sample(rng, M=10)
        cov = covariance_matrix_estimate([sample])
        v = variance_estimate(sample)
        assert cov.matrix.shape == (1, 1)
        assert cov.matrix[0, 0] == pytest.approx(v.value, rel=1e-12)

    def test_symmetric_psd(self, rng):
        grid = dft(rng.standard_normal(256))
        samples = [orthogonal_sample(grid, lag_weight(j), 15) for j in (1, 2, 3)]
        cov = covariance_matrix_estimate(samples)
        np.testing.assert_allclose(cov.matrix, cov.matrix.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(cov.matrix) >= -1e-12)

    def test_mismatched_samples_rejected(self, rng):
        s1 = make_sample(rng, T=64, M=10)
        s2 = make_sample(rng, T=64, M=8)
        with pytest.raises(ValueError):
            covariance_matrix_estimate([s1, s2])
        with pytest.raises(ValueError):
            covariance_matrix_estimate([])


class TestHotelling:
    def test_p1_matches_squared_t(self, rng):
        sample = make_sample(rng, T=256, M=12)
        v = variance_estimate(sample)
        cov = covariance_matrix_estimate([sample])
        point = sample.base.real
        t_rep = studentize(point, 0.0, v, 256)
        h_rep = hotelling_test([point], [0.0], cov)
        assert h_rep.statistic == pytest.approx(t_rep.statistic**2, rel=1e-9)
        assert h_rep.p_value == pytest.approx(t_rep.p_value, rel=1e-6)

    def test_multivariate_report(self, rng):
        grid = dft(rng.standard_normal(512))
        samples = [orthogonal_sample(grid, lag_weight(j), 20) for j in (1, 2)]
        cov = covariance_matrix_estimate(samples)
        points = [weighted_average(grid, lag_weight(j), 0).real for j in (1, 2)]
        rep = hotelling_test(points, [0.0, 0.0], cov)
        assert rep.p == 2 and rep.df == 40
        assert 0.0 <= rep.p_value <= 1.0

    def test_rank_deficiency_detected(self, rng):
        # more functionals than shifts can support: p = 3, M = 1
        grid = dft(rng.standard_normal(128))
        samples = [orthogonal_sample(grid, lag_weight(j), 1) for j in (1, 2, 3)]
        cov = covariance_matrix_estimate(samples)
        with pytest.raises(DegenerateVarianceError):
            hotelling_test([0.1, 0.1, 0.1], [0.0, 0.0, 0.0], cov)


@pytest.mark.slow
class TestCalibration:
    def test_chi2_2m_limit(self):
        # The 2M draws sqrt(2T) Re A(r), sqrt(2T) Im A(r) each have variance
        # V(0), so 2M * V-hat_M(0) / V(0) approaches chi-square(2M) for iid
        # Gaussian data.
        T, M, nrep = 1000, 10, 2000
        # V(0) for iid, weight e^{i omega}: f^2 with f = 1/(2 pi)
        V0 = (1.0 / (2 * np.pi)) ** 2
        rng = np.random.default_rng(55)
        vals = np.empty(nrep)
        for i in range(nrep):
            sample = orthogonal_sample(dft(rng.standard_normal(T)), lag_weight(1), M)
            vals[i] = 2 * M * variance_estimate(sample).value / V0
        _, pval = stats.kstest(vals, "chi2", args=(2 * M,))
        assert pval > 0.01
