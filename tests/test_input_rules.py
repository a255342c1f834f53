"""The input rules every entry point shares: the range rule lo <= M, L < T/2
for integral M and L (ShiftRangeError) and the density rule, positive and finite on the grid
(InvalidInputError).  A single-series test and its block kernel raise the
same exception with the same message, which names the value and T."""

import warnings

import numpy as np
import pytest

from orthosample.equality import equality_block, equality_test
from orthosample.htests import (
    goodness_of_fit_block,
    goodness_of_fit_test,
    portmanteau_block,
    portmanteau_test,
)
from orthosample.spectral import InvalidInputError, ShiftRangeError
from orthosample.whittle import ar_model, score_weight

T = 64


def flat_density(om):
    return np.full_like(np.asarray(om, dtype=float), 1.0 / (2 * np.pi))


def _portmanteau(x, y, block, **kw):
    return portmanteau_block(x, **kw) if block else portmanteau_test(x[0], **kw)


def _gof(x, y, block, **kw):
    if block:
        return goodness_of_fit_block(x, flat_density, **kw)
    return goodness_of_fit_test(x[0], flat_density, **kw)


def _equality(x, y, block, **kw):
    return equality_block(x, y, **kw) if block else equality_test(x[0], y[0], **kw)


CASES = [(test, dict(M=0)) for test in (_portmanteau, _gof, _equality)]
CASES += [(test, dict(M=T // 2)) for test in (_portmanteau, _gof, _equality)]
CASES += [(test, dict(L=T // 2, M=5)) for test in (_portmanteau, _gof)]
CASES += [(test, dict(M=10.9)) for test in (_portmanteau, _gof, _equality)]


@pytest.mark.parametrize("test, kw", CASES,
                         ids=[t.__name__[1:] + "-" + ",".join(f"{a}={v}" for a, v in k.items())
                              for t, k in CASES])
def test_range_rule_same_error_single_and_block(rng, test, kw):
    x, y = rng.standard_normal((2, 3, T))
    with pytest.raises(ShiftRangeError) as single:
        test(x[:1], y[:1], False, **kw)
    with pytest.raises(ShiftRangeError) as block:
        test(x, y, True, **kw)
    assert type(block.value) is type(single.value)
    assert str(block.value) == str(single.value)
    name = "L" if "L" in kw else "M"
    assert f"{name}={kw[name]} " in str(single.value) and f"T={T}" in str(single.value)


@pytest.mark.parametrize("test", [_portmanteau, _gof, _equality])
def test_numpy_integer_shift_accepted(rng, test):
    x, y = rng.standard_normal((2, 3, T))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
        one, want = (test(x[:1], y[:1], False, M=M) for M in (np.int64(10), 10))
        block = test(x, y, True, M=np.int64(10))
    assert one.tuning["M"] == 10 and type(one.tuning["M"]) is int
    assert (one.statistic, one.p_value) == (want.statistic, want.p_value)
    assert (block.statistics[0], block.p_values[0]) == (one.statistic, one.p_value)


@pytest.mark.parametrize("density", [
    lambda w: np.full_like(w, np.inf),
    lambda w: np.where(w > 1.0, np.inf, 1.0),
    lambda w: np.where(w > 1.0, np.nan, 1.0),
], ids=["inf", "inf_above_1", "nan_above_1"])
def test_density_rule(rng, density):
    with pytest.raises(InvalidInputError, match="density"):
        goodness_of_fit_test(rng.standard_normal(256), density, L=5, M=10)
    model = ar_model(1)
    bad = type(model)(lambda w, th: density(w), model.gradient, model.param_dim,
                      model.bounds, "bad_model", model.p)
    theta = [0.5, 1.0]
    with pytest.raises(InvalidInputError, match="bad_model spectral density"):
        score_weight(bad, theta, 0).on_grid(T)
    with pytest.raises(InvalidInputError, match="bad_model spectral density"):
        bad.density_on_grid(T, theta)
