"""Reference distributions cross-checked against scipy."""

import numpy as np
import pytest
from scipy import stats

from orthosample import distributions as dist

GRID = np.linspace(-8, 8, 33)
POS_GRID = np.linspace(0.05, 40, 25)
Q_LEVELS = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


class TestCdfs:
    def test_normal(self):
        law = dist.normal()
        for x in GRID:
            assert law.cdf(x) == pytest.approx(stats.norm.cdf(x), abs=1e-10)

    @pytest.mark.parametrize("nu", [1, 2, 5, 10, 21, 60])
    def test_student_t(self, nu):
        law = dist.student_t(nu)
        for x in GRID:
            assert law.cdf(x) == pytest.approx(stats.t.cdf(x, nu), abs=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 40])
    def test_chi_square(self, k):
        law = dist.chi_square(k)
        for x in POS_GRID:
            assert law.cdf(x) == pytest.approx(stats.chi2.cdf(x, k), abs=1e-8)

    @pytest.mark.parametrize("d1,d2", [(1, 5), (3, 8), (5, 20), (10, 2)])
    def test_f(self, d1, d2):
        law = dist.f_dist(d1, d2)
        for x in POS_GRID:
            assert law.cdf(x) == pytest.approx(stats.f.cdf(x, d1, d2), abs=1e-8)

    @pytest.mark.parametrize(
        "law,x,want",
        [
            (dist.chi_square(5), 200.0, stats.chi2.sf(200.0, 5)),
            (dist.student_t(10), 40.0, stats.t.sf(40.0, 10)),
            (dist.f_dist(3, 20), 60.0, stats.f.sf(60.0, 3, 20)),
        ],
        ids=str,
    )
    def test_sf_keeps_far_tail_precision(self, law, x, want):
        assert law.sf(x) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_sf_complements_cdf(self):
        law = dist.student_t(7)
        for x in GRID:
            assert law.sf(x) == pytest.approx(1.0 - law.cdf(x), abs=1e-12)


class TestQuantiles:
    @pytest.mark.parametrize(
        "law",
        [dist.normal(), dist.student_t(4), dist.chi_square(6), dist.f_dist(3, 11),
         dist.hotelling_t2(2, 10)],
        ids=str,
    )
    def test_cdf_quantile_roundtrip(self, law):
        for q in Q_LEVELS:
            assert law.cdf(law.quantile(q)) == pytest.approx(q, abs=1e-7)

    def test_quantile_domain(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                dist.normal().quantile(0.0)
            with pytest.raises(ValueError):
                dist.normal().quantile(1.2)

    def test_cached_quantile_is_the_bisection(self):
        law = dist.student_t(40)
        q = law.quantile(np.float64(0.975))
        assert type(q) is float
        assert q == dist.Dist._bisect.__wrapped__(dist.student_t(40), 0.975)
        assert law.quantile(0.975) == q
        assert hash(law) == hash(dist.student_t(40))


class TestLimitsAndIdentities:
    def test_t_approaches_normal(self):
        t500 = dist.student_t(500)
        n = dist.normal()
        sup = max(abs(t500.cdf(x) - n.cdf(x)) for x in GRID)
        assert sup < 2e-3

    def test_hotelling_is_scaled_f(self):
        p, m = 3, 12
        law = dist.hotelling_t2(p, m)
        f = dist.f_dist(p, m - p + 1)
        scale = p * m / (m - p + 1)
        for x in POS_GRID:
            assert law.cdf(x) == pytest.approx(f.cdf(x / scale), abs=1e-12)

    def test_hotelling_p1_is_f(self):
        # dimension one: T^2(1, m) = m/m * F(1, m)
        law = dist.hotelling_t2(1, 10)
        for x in POS_GRID:
            assert law.cdf(x) == pytest.approx(stats.f.cdf(x, 1, 10), abs=1e-8)


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            dist.student_t(0)
        with pytest.raises(ValueError):
            dist.chi_square(-1)
        with pytest.raises(ValueError):
            dist.f_dist(0, 3)
        with pytest.raises(ValueError):
            dist.hotelling_t2(5, 3)  # m - p + 1 <= 0

    def test_incomplete_functions(self):
        # P(a, x) is the chi-square(2a) cdf at 2x
        assert dist.chi_square(2 * 2.0).cdf(2 * 0.0) == 0.0
        assert dist.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert dist.reg_inc_beta(2.0, 3.0, 1.0) == 1.0
        for a, x in [(0.5, 0.3), (3.0, 2.0), (10.0, 14.0)]:
            assert dist.chi_square(2 * a).cdf(2 * x) == pytest.approx(
                stats.gamma.cdf(x, a), abs=1e-10
            )
        for a, b, x in [(0.5, 0.5, 0.2), (2.0, 7.0, 0.6), (9.0, 3.0, 0.9)]:
            assert dist.reg_inc_beta(a, b, x) == pytest.approx(
                stats.beta.cdf(x, a, b), abs=1e-10
            )
