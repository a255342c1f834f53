"""Property tests: test p-values do not depend on the scale of the data, and
the FFT weighted averages equal the quadratic-form oracle at every shift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quadratic_form_oracle
from orthosample.htests import (
    box_pierce,
    goodness_of_fit_test,
    portmanteau_test,
    robust_portmanteau,
)
from orthosample.spectral import (
    ar_spectral_density,
    dft,
    lag_weight,
    weighted_average,
)

series_seed = st.integers(min_value=0, max_value=2**32 - 1)
# long enough that the default search set 10..30 has feasible members at p = 4
length = st.integers(min_value=60, max_value=300)
exponent = st.integers(min_value=-20, max_value=20)


def _series(seed, T):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(T + 1)
    return e[1:] + 0.4 * e[:-1]


def _ar06_density(w):
    return ar_spectral_density(w, [0.6], 1.0)


class TestScaleInvariance:
    """x -> 2^k x scales every transform exactly, so the orthogonal tests
    (M selected) return the same M and p-value bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(series_seed, length, exponent)
    def test_portmanteau(self, seed, T, k):
        x = _series(seed, T)
        a, b = portmanteau_test(x), portmanteau_test(2.0**k * x)
        assert (b.p_value, b.tuning["M"]) == (a.p_value, a.tuning["M"])

    @settings(max_examples=40, deadline=None)
    @given(series_seed, length, exponent)
    def test_goodness_of_fit(self, seed, T, k):
        x = _series(seed, T)
        a = goodness_of_fit_test(x, _ar06_density)
        b = goodness_of_fit_test(2.0**k * x, _ar06_density)
        assert (b.p_value, b.tuning["M"]) == (a.p_value, a.tuning["M"])

    @settings(max_examples=40, deadline=None)
    @given(series_seed, length, exponent)
    def test_chi_square_baselines(self, seed, T, k):
        x = _series(seed, T)
        for test in (box_pierce, robust_portmanteau):
            a, b = test(x), test(2.0**k * x)
            assert b.p_value == pytest.approx(a.p_value, rel=1e-12)


class TestOracleIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=8, max_size=64),
           st.integers(min_value=0, max_value=3))
    def test_weighted_average_equals_oracle_at_every_shift(self, values, j):
        x = np.asarray(values)
        grid = dft(x)
        phi = lag_weight(j)
        # both sides are sums of T^2 products of the demeaned data
        tol = 1e-9 * (1.0 + np.sum((x - x.mean()) ** 2))
        for r in range(0, (x.size + 1) // 2):
            a = weighted_average(grid, phi, r)
            assert abs(a - quadratic_form_oracle(x, phi, r)) <= tol
