"""The input rules every entry point shares: the integer rule for every count
and order, the range rule lo <= M, L < T/2 and the search-set rule
(ShiftRangeError), the real-number rule for every real setting and the
density rule, positive and finite on the grid (InvalidInputError), and the
degenerate-data rule (DegenerateDataError).  A single-series test and its
block kernel raise the same exception with the same message, which names the
value and T."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosample.distributions import chi_square, f_dist, hotelling_t2, student_t
from orthosample.equality import equality_block, equality_test
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
from orthosample.models import (MODEL_REGISTRY, ModelSpec, generate_batch,
                                generate_bivariate_batch)
from orthosample.selection import _feasible, select_M, select_M_block
from orthosample.spectral import (DegenerateDataError, InvalidInputError, ShiftRangeError,
                                  WeightFunction, _real, dft, lag_weight, orthogonal_sample)
from orthosample.variance import (CovMatrixEstimate, covariance_matrix_estimate, hotelling_test,
                                  studentize, studentize_block)
from orthosample.whittle import ar_model

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


def _box_pierce(x, y, block, **kw):
    return box_pierce_block(x, **kw) if block else box_pierce(x[0], **kw)


def _robust(x, y, block, **kw):
    return robust_portmanteau_block(x, **kw) if block else robust_portmanteau(x[0], **kw)


CASES = [(test, dict(M=0)) for test in (_portmanteau, _gof, _equality)]
CASES += [(test, dict(M=T // 2)) for test in (_portmanteau, _gof, _equality)]
CASES += [(test, dict(L=T // 2, M=5)) for test in (_portmanteau, _gof)]
CASES += [(test, dict(M=10.9)) for test in (_portmanteau, _gof, _equality)]
CASES += [(test, dict(L=2.5)) for test in (_portmanteau, _gof, _box_pierce, _robust)]


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


# The integer rule: every count and order (a shift, L, M, p, a search-set
# member, a lag, an AR order) takes an integral value, say 5.0 or a numpy
# integer, as that int and refuses any other with a ShiftRangeError naming it.

@pytest.mark.parametrize("test", [_box_pierce, _robust])
def test_baseline_integral_lag_count_accepted(rng, test):
    x = rng.standard_normal((3, T))
    one, want = (test(x[:1], None, False, L=L) for L in (5.0, 5))
    assert (one.statistic, one.p_value) == (want.statistic, want.p_value)
    block, want = (test(x, None, True, L=L) for L in (np.int64(5), 5))
    assert np.array_equal(block.p_values, want.p_values)


def test_search_set_member_obeys_integer_rule(rng):
    x = rng.standard_normal(200)
    grid = dft(x)
    calls = [lambda: select_M(grid, lag_weight(1), (10.9,)),
             lambda: portmanteau_test(x, search_set=(10.9,)),
             lambda: _feasible(200, (10.9, 12), 4)]
    for call in calls:
        with pytest.raises(ShiftRangeError, match=r"^M=10\.9 is not an integer$"):
            call()


@pytest.mark.parametrize("search_set", [(0, 12), (), (12, -1)])
def test_feasible_search_set_obeys_search_set_rule(search_set):
    with pytest.raises(ShiftRangeError, match="must be non-empty with every M >= 1"):
        _feasible(200, search_set, 4)


@pytest.mark.parametrize("p", [4.5, "4"])
def test_p_obeys_integer_rule(rng, p):
    with pytest.raises(ShiftRangeError, match=f"^p={p} is not an integer$"):
        select_M(dft(rng.standard_normal(200)), lag_weight(1), p=p)


def test_integral_floats_give_the_int_results(rng):
    x = rng.standard_normal(200)
    grid = dft(x)
    assert (select_M(grid, lag_weight(1), (10.0, np.int64(12)), 4.0)
            == select_M(grid, lag_weight(1), (10, 12), 4))
    assert (select_M(grid, lag_weight(1), (12.0,)).criterion_curve[12]
            == select_M(grid, lag_weight(1), (12,)).criterion_curve[12])
    assert _feasible(200, (10.0, 12.0), 4.0) == ((10, 12), 4)
    got, want = (portmanteau_test(x, L=L, p=p, search_set=s)
                 for L, p, s in ((5.0, 4.0, (10.0, 12.0)), (5, 4, (10, 12))))
    assert (got.statistic, got.p_value, got.tuning["M"]) == (want.statistic, want.p_value,
                                                              want.tuning["M"])


def test_shift_and_order_obey_integer_rule(rng):
    x = rng.standard_normal(T)
    with pytest.raises(ShiftRangeError, match=r"shift r=2\.5 is not an integer"):
        dft(x).shifted(2.5)
    with pytest.raises(ShiftRangeError, match=r"AR order p=1\.5 is not an integer"):
        ar_model(1.5)
    assert ar_model(1.0).p == 1 and type(ar_model(np.int64(2)).p) is int


_GENERATORS = {
    "generate_batch": lambda T: (generate_batch(MODEL_REGISTRY["ar_g_0.6"], T, [3, 4]),),
    "generate_bivariate_batch": lambda T: generate_bivariate_batch(0.1, 0.5, T, [3, 4]),
}


@pytest.mark.parametrize("generator", list(_GENERATORS))
def test_generator_length_obeys_integer_rule(generator):
    draw = _GENERATORS[generator]
    want = [out.series for out in draw(100)]
    for T in (100.0, np.int64(100)):
        got = [out.series for out in draw(T)]
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(got, want))
    for T in (100.5, True, "100"):
        with pytest.raises(ShiftRangeError, match=f"^T={re.escape(str(T))} is not an integer$"):
            draw(T)
    for T in (1, 0, -5):
        with pytest.raises(ValueError, match="^T must be >= 2$"):
            draw(T)


@pytest.mark.parametrize("p, error, message", [
    (True, ShiftRangeError, "AR order p=True is not an integer"),
    ("2", ShiftRangeError, "AR order p=2 is not an integer"),
    (np.nan, ShiftRangeError, "AR order p=nan is not an integer"),
    (0, ValueError, "AR order must be >= 1"),
    (-1, ValueError, "AR order must be >= 1"),
], ids=["bool", "string", "nan", "zero", "negative"])
def test_ar_model_order_refused(p, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ar_model(p)


def test_ar_model_takes_only_the_order():
    # sigma is always fitted: theta = (phi_1..phi_p, sigma)
    with pytest.raises(TypeError):
        ar_model(1, sigma=1.0)
    assert ar_model(2).param_dim == 3


def test_hotelling_dimensions_obey_integer_rule():
    with pytest.raises(ShiftRangeError, match=r"^p=2\.5 is not an integer$"):
        hotelling_t2(2.5, 10.7)  # was hotelling(2, 10)
    with pytest.raises(ShiftRangeError, match=r"^m=10\.7 is not an integer$"):
        hotelling_t2(2, 10.7)
    law = hotelling_t2(2.0, np.int64(10))
    assert law == hotelling_t2(2, 10) and all(type(v) is int for v in law.params)


CONSTANT = np.ones(80)
NOISE = np.random.default_rng(0).standard_normal(128)
DEGENERATE = {
    "box_pierce": (lambda: box_pierce(CONSTANT),
                   "zero sample variance; Box-Pierce undefined"),
    "robust_portmanteau": (lambda: robust_portmanteau(CONSTANT),
                           "zero normaliser tau at lag 1"),
    "equality_test": (lambda: equality_test(NOISE, NOISE),
                      "zero variance in null draws; beta undefined"),
    "studentize_block": (lambda: studentize_block(np.ones(2), 0.0, np.array([1.0, 0.0]), 64),
                         "orthogonal-sample variance estimate is zero; series may be degenerate"),
    "hotelling_test": (lambda: hotelling_test([0.1, 0.1], [0.0, 0.0],
                                              CovMatrixEstimate(np.diag([1.0, 0.0]), 5, 64)),
                       "covariance estimate is rank deficient (smallest eigenvalue 0.000e+00); "
                       "increase M relative to p"),
    "selection": (lambda: select_M(dft(CONSTANT), lag_weight(1), (4,), 4),
                  "degenerate variance window encountered for M=4"),
}


@pytest.mark.parametrize("site", DEGENERATE)
def test_degenerate_data_is_one_error(site):
    # one class at every raise site: bad input (a ValueError) and a division
    # by zero, so either kind of handler catches it
    call, message = DEGENERATE[site]
    with pytest.raises(DegenerateDataError) as caught:
        call()
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value, ZeroDivisionError)
    assert str(caught.value) == message


@pytest.mark.parametrize("beta", [0.25, 1.0, "estimate"])
@pytest.mark.parametrize("block", [False, True], ids=["test", "block"])
def test_equal_pair_is_degenerate_for_every_beta(beta, block):
    # equal series give all-zero draws: no power of their mean is defined
    x = np.stack([NOISE, NOISE[::-1]])
    message = "zero variance in null draws; " + ("beta" if beta == "estimate" else "test")
    with pytest.raises(DegenerateDataError, match=f"^{message} undefined$"):
        _equality(x, x, block, beta=beta)


@pytest.mark.parametrize("name", ["L", "M"])
@pytest.mark.parametrize("value", [None, "ten", float("nan"), float("inf"), True, np.True_],
                         ids=repr)
def test_non_numeric_count_obeys_integer_rule(rng, name, value):
    # int(value) fails outright here, rather than giving an int that differs;
    # a boolean is refused although int(True) == True
    x = rng.standard_normal(T)
    if name == "L":
        call = lambda: portmanteau_test(x, L=value, M=5)
    else:  # M = None selects M in the tests, so ask the M search for it
        call = lambda: select_M(dft(x), lag_weight(1), (value,))
    with pytest.raises(ShiftRangeError, match=rf"^{name}={value} is not an integer"):
        call()


@pytest.mark.parametrize("level, message", [
    (-0.5, "confidence level=-0.5 outside (0, 1)"),
    (0.0, "confidence level=0.0 outside (0, 1)"),
    (1.0, "confidence level=1.0 outside (0, 1)"),
    (1.5, "confidence level=1.5 outside (0, 1)"),
    (np.nan, "confidence level=nan is not finite"),
    (True, "confidence level=True is not a real number"),
    ("0.95", "confidence level='0.95' is not a real number"),
], ids=["negative", "zero", "one", "above_one", "nan", "bool", "string"])
def test_confidence_level_in_open_unit_interval(level, message):
    variance = CovMatrixEstimate(np.array([[2.0]]), M=10, T=T)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        studentize(0.1, 0.0, variance, T, ci_levels=(0.95, level))
    got, want = (studentize(0.1, 0.0, variance, T, ci_levels=(v,)).tuning["confidence_intervals"]
                 for v in (np.float64(0.9), 0.9))
    assert got == want


VARIANCE = CovMatrixEstimate(np.array([[2.0]]), 10, T)
COV = CovMatrixEstimate(np.eye(2), 10, T)


@pytest.mark.parametrize("call, message", [
    (lambda: studentize(np.nan, 0.0, VARIANCE, T), "point=nan is not finite"),
    (lambda: studentize(True, 0.0, VARIANCE, T), "point=True is not a real number"),
    (lambda: studentize(0.1, -np.inf, VARIANCE, T), "target=-inf is not finite"),
    (lambda: studentize(np.complex128(0.1 + 2j), 0.0, VARIANCE, T),
     "point=(0.1+2j) is not a real number"),
    (lambda: studentize(0.1, 0.0, CovMatrixEstimate(np.array([[np.inf]]), 10, T), T),
     "covariance estimate matrix[0, 0]=inf is not finite"),
    (lambda: studentize(0.1, 0.0, COV, T), "studentize needs a 1x1 variance estimate, not p=2"),
    (lambda: studentize(0.1, 0.0, VARIANCE, 4 * T),
     f"T={4 * T} differs from the variance estimate's T={T}"),
    (lambda: hotelling_test([np.nan, 0.1], [0.0, 0.0], COV), "points[0]=nan is not finite"),
    (lambda: hotelling_test([0.1, 0.1], [0.0, np.inf], COV), "targets[1]=inf is not finite"),
    (lambda: hotelling_test([0.1, "0.1"], [0.0, 0.0], COV),
     "points[1]='0.1' is not a real number"),
], ids=["nan_point", "bool_point", "inf_target", "complex_point", "inf_variance", "p_2",
        "other_T", "nan_points", "inf_targets", "string_points"])
def test_calibrated_statistic_input_is_refused(call, message):
    # each would give a NaN, a zero or a silently rescaled statistic
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


# The validity rule of every estimate, V-hat_M its 1x1 case: a square 2-D
# float array, all finite, with a non-negative diagonal.  Each refusal names
# the matrix and the cause, so no test answers on such an estimate.
@pytest.mark.parametrize("matrix, message", [
    (np.diag([np.inf, 1.0]), "covariance estimate matrix[0, 0]=inf is not finite"),
    (np.diag([1.0, np.nan]), "covariance estimate matrix[1, 1]=nan is not finite"),
    (np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
     "covariance estimate matrix[0, 1]=-inf is not finite"),
    (np.zeros((2, 3)),
     "covariance estimate matrix (dtype float64, shape (2, 3)) is not a square 2-D float array"),
    ([[1.0, 0.0], [0.0, 1.0]],
     "covariance estimate matrix (list) is not a square 2-D float array"),
    (np.eye(2, dtype=int),
     "covariance estimate matrix (dtype int64, shape (2, 2)) is not a square 2-D float array"),
    (np.ones(2), "covariance estimate matrix (dtype float64, shape (2,)) is not a square 2-D "
                 "float array"),
    (np.diag([1.0, -1.0]), "covariance estimate matrix[1, 1]=-1.0 is negative"),
    # without the symmetry rule hotelling_test answered T^2 = -1.92, p = 1.0
    (np.array([[1.0, 5.0], [0.0, 1.0]]),
     "covariance estimate matrix[0, 1]=5.0 is not symmetric: matrix[1, 0]=0.0"),
    (np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]]),
     "covariance estimate matrix[0, 1]=0.5 is not symmetric: matrix[1, 0]=0.5000000000000001"),
], ids=["inf", "nan", "inf_off_diagonal", "2x3", "list", "int", "1d", "negative_diagonal",
        "asymmetric", "one_ulp_asymmetric"])
def test_estimate_validity_rule(matrix, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        hotelling_test([0.1, 0.1], [0.0, 0.0], CovMatrixEstimate(matrix, 10, T))


# An estimate's T obeys the integer rule and its M the range rule of every M,
# so no t(2M) or T^2(p, 2M) law is built from a fractional, boolean or zero M.
@pytest.mark.parametrize("M, T_, message", [
    (2.5, T, f"M=2.5 is not an integer, for T={T}"),
    (True, T, f"M=True is not an integer, for T={T}"),
    (0, T, f"M=0 out of range [1, T/2) for T={T}"),
    (T // 2, T, f"M={T // 2} out of range [1, T/2) for T={T}"),
    (10, 64.5, "T=64.5 is not an integer"),
    (10, True, "T=True is not an integer"),
], ids=["fractional_M", "bool_M", "zero_M", "M_T_half", "fractional_T", "bool_T"])
def test_estimate_M_and_T_rules(M, T_, message):
    with pytest.raises(ShiftRangeError, match=f"^{re.escape(message)}$"):
        CovMatrixEstimate(np.array([[2.0]]), M, T_)


def test_estimate_keeps_M_and_T_as_ints():
    est = CovMatrixEstimate(np.array([[2.0]]), np.int64(10), float(T))
    assert (est.M, est.T) == (10, T) and type(est.M) is type(est.T) is int
    assert studentize(0.1, 0.0, est, T).null_ref == studentize(0.1, 0.0, VARIANCE, T).null_ref


def test_valid_estimate_is_read_only():
    # a negative off-diagonal entry is a covariance, not a fault
    cov = CovMatrixEstimate(np.array([[2.0, -0.5], [-0.5, 1.0]]), 10, T)
    assert cov.p == 2 and not cov.matrix.flags.writeable


@pytest.mark.parametrize("other_T, other_M, message", [
    (T, 6, "samples[2] has M=6, T=64, but samples[0] has M=5, T=64; all must share M and T"),
    (2 * T, 5, "samples[2] has M=5, T=128, but samples[0] has M=5, T=64; all must share M and T"),
])
def test_covariance_samples_must_share_M_and_T(rng, other_T, other_M, message):
    grid = dft(rng.standard_normal(T))
    samples = [orthogonal_sample(grid, lag_weight(j), 5) for j in (1, 2)]
    odd = orthogonal_sample(dft(rng.standard_normal(other_T)), lag_weight(3), other_M)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        covariance_matrix_estimate([*samples, odd, odd])
    with pytest.raises(InvalidInputError, match="^need at least one orthogonal sample$"):
        covariance_matrix_estimate([])


# One rule per number: every numeric argument of the tests obeys its rule, the
# integer rule for a count and the real-number rule for a real (the equality
# test's b and beta: a finite number, not a bool or a string, taken as a
# float), with one outcome per class of value whatever the argument. A
# boolean, a numeric string and a non-finite float are refused with the rule's
# error, which names the argument; another spelling of a valid number (an
# int, a float or a numpy number, an integral float for a count) gives the
# number's results.
COUNT = {"error": ShiftRangeError, "refused": "is not an integer",
         "non-finite": "is not an integer"}
REAL = {"error": InvalidInputError, "refused": "is not a real number",
        "non-finite": "is not finite"}
# (test, argument, the name its error gives, a valid value, the rule)
ARGUMENTS = [
    (_equality, "M", "M", 10, COUNT),
    (_equality, "b", "bandwidth b", 0.25, REAL),
    (_equality, "beta", "beta", 1, REAL),
    *[(test, "L", "L", 3, COUNT) for test in (_portmanteau, _gof, _box_pierce, _robust)],
    *[(test, arg, arg, valid, COUNT) for test in (_portmanteau, _gof)
      for arg, valid in (("M", 10), ("p", 4))],
    *[(test, "search_set", "M", 12, COUNT) for test in (_portmanteau, _gof)],
]
XY = np.random.default_rng(2016).standard_normal((2, 3, T))


def value_class(kind: str, valid):
    """The values of one class: booleans, non-finite floats, numeric strings of
    ``valid`` or other spellings of the number ``valid``."""
    if kind == "boolean":
        return st.sampled_from([True, False, np.True_, np.False_])
    if kind == "non-finite":
        return st.sampled_from([np.nan, np.inf, -np.inf, np.float64(np.nan), np.float64(-np.inf)])
    if kind == "string":
        return st.sampled_from([str(valid), repr(float(valid))])
    integers = [int(valid), np.int64(valid)] if float(valid).is_integer() else []
    return st.sampled_from([valid, float(valid), np.float64(valid), *integers])


@pytest.mark.parametrize("kind", ["boolean", "non-finite", "string", "number"])
@pytest.mark.parametrize("test, arg, name, valid, rule", ARGUMENTS,
                         ids=[f"{t.__name__[1:]}-{a}" for t, a, *_ in ARGUMENTS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_one_rule_per_library_number(test, arg, name, valid, rule, kind, data):
    value = data.draw(value_class(kind, valid), label=arg)
    kw = lambda v: {arg: (v,) if arg == "search_set" else v}
    x, y = XY
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # beta clamping
        if kind == "number":
            got, want = (test(x[:1], y[:1], False, **kw(v)) for v in (value, valid))
            assert (got.statistic, got.p_value) == (want.statistic, want.p_value)
            return
        message = rf"^{re.escape(name)}=.* {rule['refused' if kind != 'non-finite' else kind]}"
        for block in (False, True):
            with pytest.raises(rule["error"], match=message):
                test(x if block else x[:1], y if block else y[:1], block, **kw(value))


# The reals of the public constructors obey the real-number rule too: the
# degrees of freedom of a reference law and the ARCH and non-causal
# coefficients of a ModelSpec.  Each is kept as the float.
# (constructor, the name its error gives, a valid value, what to compare)
CONSTRUCTORS = [
    (student_t, "df", 10, lambda law: law.params),
    (chi_square, "df", 5, lambda law: law.params),
    (lambda d1: f_dist(d1, 3.0), "d1", 2, lambda law: law.params),
    (lambda d2: f_dist(2.0, d2), "d2", 3, lambda law: law.params),
    *[(lambda v, tag=tag, params=params, name=name: ModelSpec(tag, {**params, name: v}),
       name, 0.5, lambda spec: dict(spec.params))
      for tag, params, name in [
          ("arch1", {}, "alpha"),
          ("noncausal_linear", {"innovation": "arch", "a": 0.6}, "arch_alpha"),
          ("noncausal_linear", {"innovation": "normal"}, "a"),
          ("pseudo_linear", {"b2": -0.6, "arch_alpha": 0.5}, "b1"),
          ("pseudo_linear", {"b1": -0.8, "arch_alpha": 0.5}, "b2"),
      ]],
]


@pytest.mark.parametrize("kind", ["boolean", "non-finite", "string", "number"])
@pytest.mark.parametrize("build, name, valid, key", CONSTRUCTORS,
                         ids=[f"{i}-{c[1]}" for i, c in enumerate(CONSTRUCTORS)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_one_rule_per_constructor_real(build, name, valid, key, kind, data):
    value = data.draw(value_class(kind, valid), label=name)
    if kind == "number":
        assert repr(key(build(value))) == repr(key(build(float(valid))))  # floats, not numpy's
        return
    message = rf"^{name}=.* {REAL['refused' if kind != 'non-finite' else kind]}$"
    with pytest.raises(InvalidInputError, match=message):
        build(value)


@pytest.mark.parametrize("call, message", [
    (lambda: student_t(True), "df=True is not a real number"),
    (lambda: student_t(np.inf), "df=inf is not finite"),
    (lambda: chi_square(True), "df=True is not a real number"),
    (lambda: f_dist(True, 3.0), "d1=True is not a real number"),
    (lambda: ModelSpec("arch1", {"alpha": False}), "alpha=False is not a real number"),
    (lambda: ModelSpec("arch1", {"alpha": "0.5"}), "alpha='0.5' is not a real number"),
    (lambda: _real(np.complex128(1 + 2j), "x"), "x=(1+2j) is not a real number"),
    (lambda: _real(np.complex64(1), "x"), "x=(1+0j) is not a real number"),
    (lambda: student_t(np.complex128(10)), "df=(10+0j) is not a real number"),
], ids=["t_bool", "t_inf", "chi2_bool", "f_bool", "alpha_bool", "alpha_string", "complex128",
        "complex64", "t_complex"])
def test_constructor_real_refused(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("test", [_box_pierce, _robust])
@pytest.mark.parametrize("L", [0, T])
def test_baseline_lag_count_obeys_range_rule(rng, test, L):
    x = rng.standard_normal((3, T))
    for block in (False, True):
        with pytest.raises(ShiftRangeError, match=rf"^L={L} out of range for T={T}$"):
            test(x if block else x[:1], None, block, L=L)


@pytest.mark.parametrize("test", [_portmanteau, _gof])
@pytest.mark.parametrize("M, message", [
    (5, "{method}: row 0 has non-finite null draws: the data's scale overflows a float"),
    # the M search meets the overflow first, in its criterion curve
    (None, "criterion curve is not finite: the data's scale overflows a float"),
], ids=["5", "None"])
def test_overflowing_draws_are_refused(rng, test, M, message):
    # finite input whose squared transforms overflow: the null would hold inf
    x = 1e200 * rng.standard_normal((3, T))
    message = message.format(method={_portmanteau: "orthogonal_portmanteau",
                                     _gof: "orthogonal_gof"}[test])
    for block in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                test(x if block else x[:1], None, block, M=M)


@pytest.mark.parametrize("test, method", [(_portmanteau, "orthogonal_portmanteau"),
                                          (_gof, "orthogonal_gof")])
def test_overflowing_fixed_M_draws_name_the_test_and_row(rng, test, method):
    # with M fixed no search meets the overflow first: the null draws do, and
    # the refusal names the test, not the kernel's own label, and the row
    x = rng.standard_normal((3, T))
    x[-1] *= 1e150
    for block, row in ((False, 0), (True, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(DegenerateDataError) as refused:
                test(x if block else x[-1:], None, block, M=10)
        assert str(refused.value) == (f"{method}: row {row} has non-finite null draws: "
                                      "the data's scale overflows a float")
    assert np.isfinite(test(x[:1], None, False, M=10).p_value)


@pytest.mark.parametrize("test, scale, method", [
    (_box_pierce, 1e80, "box_pierce"),
    (_robust, 1e80, "robust_portmanteau"),
    # 3 var^2 of the draws overflows, var^2 does not (beta was 1 and p wrong)
    (_equality, 1e20, "spectral_equality"),
    # a float power of the equality transform overflows (it raised OverflowError)
    (_equality, 1e30, "spectral_equality"),
    # the equality p-value is NaN (it was returned)
    (_equality, 1e40, "spectral_equality"),
], ids=["box_pierce", "robust", "equality_3var2", "equality_pow", "equality_nan"])
def test_overflowing_statistic_is_refused(rng, test, scale, method):
    # finite input whose statistic or p-value overflows: the test refuses
    # the row, in a block too, and never answers NaN
    x, y = rng.standard_normal((2, 3, T))
    x[-1] *= scale
    y[-1] *= scale
    for block, row in ((False, 0), (True, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(DegenerateDataError, match=(
                    f"^{method}: row {row} has a non-finite statistic or p-value: "
                    "the data's scale overflows a float$")):
                test(x if block else x[-1:], y if block else y[-1:], block)
    assert np.isfinite(test(x[:1], y[:1], False).p_value)


def test_overflowing_criterion_curve_is_refused(rng):
    x = 1e150 * rng.standard_normal(T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        with pytest.raises(DegenerateDataError, match="^criterion curve is not finite: "
                                                       "the data's scale overflows a float$"):
            select_M(dft(x, demean=True), lag_weight(1), range(5, 11))
    # one overflowed |A(phi; r)|^2 beyond the T/p scores leaves the curve finite
    runs = rng.standard_normal((2, T // 4 + 6)) + 0j
    runs[1, -1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        with pytest.raises(DegenerateDataError, match="^criterion curve is not finite"):
            select_M_block(runs, T, (5,), 4)


def test_scalar_weight_is_broadcast_on_the_grid():
    vals = WeightFunction(lambda w: 2.0, "two").on_grid(T)
    assert vals.shape == (T,) and vals.dtype == complex
    assert np.all(vals == 2.0)
