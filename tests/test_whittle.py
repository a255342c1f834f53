"""Whittle objective, fitting, and the score-variance estimator."""

import re
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import score_covariance, whittle_fit_reference, whittle_objective
from orthosample import whittle
from orthosample.models import MODEL_REGISTRY, ModelSpec, generate
from orthosample.spectral import (DegenerateDataError, InvalidInputError, ShiftRangeError,
                                  WeightFunction, dft, grid_frequencies, orthogonal_sample)
from orthosample.variance import CovMatrixEstimate, covariance_matrix_estimate
from orthosample.whittle import ARModel, ar_model, whittle_fit, whittle_score_variance


SCALE_SERIES = generate(MODEL_REGISTRY["ar_g_0.6"], 256, seed=3).series
AR2 = ModelSpec("ar", {"coeffs": (0.5, 0.3), "innovation": "normal"})


class TestModels:
    def test_ar1_density_closed_form(self):
        model = ar_model(1)
        w = np.linspace(0.1, 6.2, 13)
        f = model.density(w, np.array([0.6, 1.0]))
        want = 1.0 / (2 * np.pi) / np.abs(1 - 0.6 * np.exp(1j * w)) ** 2
        np.testing.assert_allclose(f, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "model,theta",
        [
            (ar_model(1), np.array([0.5, 1.2])),
            (ar_model(2), np.array([0.9, -0.5, 0.8])),
            (ar_model(3), np.array([0.4, -0.3, 0.2, 1.1])),
            (ar_model(1), np.array([-0.4, 0.7])),
            (ar_model(2), np.array([-0.6, 0.3, 1.5])),
            (ar_model(4), np.array([0.3, -0.2, 0.1, -0.05, 0.9])),
        ],
        ids=["ar1", "ar2", "ar3", "ar1-negative", "ar2-negative", "ar4"],
    )
    def test_gradient_matches_finite_difference(self, model, theta):
        w = np.linspace(0.2, 6.0, 9)
        grad = np.asarray(model.gradient(w, theta))
        h = 1e-5
        for c in range(model.p + 1):
            up, dn = theta.copy(), theta.copy()
            up[c] += h
            dn[c] -= h
            fd = (np.asarray(model.density(w, up)) - np.asarray(model.density(w, dn))) / (2 * h)
            np.testing.assert_allclose(grad[c], fd, atol=1e-6)

    def test_box_is_binomial(self):
        assert ar_model(1).bounds == ((-0.95, 0.95), (0.0, np.inf))
        assert ar_model(2).bounds == ((-1.9, 1.9), (-0.95, 0.95), (0.0, np.inf))
        assert ar_model(3).bounds[1] == pytest.approx((-2.85, 2.85))
        assert ar_model(3).bounds[3] == (0.0, np.inf)

    @pytest.mark.parametrize("theta", [[0.5, 0.0], [0.5, np.inf], [np.nan, 1.0]],
                             ids=["zero", "inf", "nan"])
    def test_density_positivity_enforced(self, theta):
        with pytest.raises(InvalidInputError, match="^ar1 spectral density is not positive"):
            ar_model(1).density_on_grid(16, theta)

    @pytest.mark.parametrize("theta", [[0.2], [0.2, 1.0, 3.0], [[0.2, 1.0]]],
                             ids=["short", "long", "2-d"])
    @pytest.mark.parametrize("call", [
        lambda theta: ar_model(1).density(grid_frequencies(16), theta),
        lambda theta: ar_model(1).gradient(grid_frequencies(16), theta),
        lambda theta: ar_model(1).density_on_grid(16, theta),
        lambda theta: whittle_score_variance(dft(SCALE_SERIES), ar_model(1), theta, 5),
    ], ids=["density", "gradient", "density_on_grid", "whittle_score_variance"])
    def test_theta_has_p_plus_1_coordinates(self, call, theta):
        shape = np.shape(theta)
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"ar1 takes theta of 2 coordinates (phi_1..phi_p, sigma), not shape {shape}")):
            call(theta)

    def test_order_is_the_only_value(self):
        # the box, name, parameter count, density and gradient follow from p
        assert [f.name for f in fields(ARModel)] == ["p"]
        model = ARModel(np.int64(3))
        assert model == ar_model(3) and type(model.p) is int
        assert (model.name, model.p + 1, len(model.bounds)) == ("ar3", 4, 4)
        with pytest.raises(FrozenInstanceError):
            model.p = 2
        with pytest.raises(ValueError, match="^AR order must be >= 1$"):
            ARModel(0)


class TestObjective:
    def test_sign_flip_invariance(self, rng):
        x = rng.standard_normal(200)
        model = ar_model(1)
        theta = np.array([0.3, 1.0])
        assert whittle_objective(dft(x), model, theta) == pytest.approx(
            whittle_objective(dft(-x), model, theta), rel=1e-12
        )

    def test_formula(self, rng):
        x = rng.standard_normal(64)
        grid = dft(x)
        model = ar_model(1)
        theta = np.array([0.4, 1.3])
        f = model.density(grid_frequencies(64), theta)
        want = np.mean(np.abs(grid.coeffs) ** 2 / f + np.log(f))
        assert whittle_objective(grid, model, theta) == pytest.approx(want, rel=1e-12)


class TestFit:
    def test_recovers_ar1(self):
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 2048, seed=101).series
        fit = whittle_fit(dft(x), ar_model(1))
        phi_hat, sigma_hat = fit.theta_hat
        assert phi_hat == pytest.approx(0.6, abs=0.08)
        assert sigma_hat == pytest.approx(1.0, abs=0.1)
        assert not fit.on_boundary

    def test_objective_at_min_beats_seeds(self, rng):
        x = rng.standard_normal(256)
        model = ar_model(1)
        grid = dft(x)
        fit = whittle_fit(grid, model)
        for phi in np.linspace(-0.9, 0.9, 7):
            for sigma in (0.5, 1.0, 2.0):
                assert fit.objective_at_min <= whittle_objective(grid, model,
                                                                 [phi, sigma]) + 1e-12

    def test_score_small_at_interior_minimum(self):
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 1024, seed=7).series
        grid = dft(x)
        model = ar_model(1)
        fit = whittle_fit(grid, model, tol=1e-8)
        assert not fit.on_boundary
        h = 1e-5
        for c in range(model.p + 1):
            up, dn = fit.theta_hat.copy(), fit.theta_hat.copy()
            up[c] += h
            dn[c] -= h
            deriv = (whittle_objective(grid, model, up)
                     - whittle_objective(grid, model, dn)) / (2 * h)
            assert abs(deriv) <= 1e-4

    @pytest.mark.parametrize("other, name", [("ar1", "str"), (1, "int"), (None, "NoneType")])
    def test_rejects_models_not_from_ar_model(self, rng, other, name):
        with pytest.raises(TypeError, match=f"^whittle_fit fits an ARModel, not {name}$"):
            whittle_fit(dft(rng.standard_normal(64)), other)

    def test_constant_series_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            whittle_fit(dft(np.full(32, 2.5)), ar_model(1))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_fit_is_scale_equivariant(self, c):
        x = SCALE_SERIES
        base = whittle_fit(dft(x), ar_model(1))
        fit = whittle_fit(dft(c * x), ar_model(1))
        assert fit.theta_hat[0] == pytest.approx(base.theta_hat[0], abs=1e-8)
        assert fit.theta_hat[1] == pytest.approx(c * base.theta_hat[1], rel=1e-8)
        assert not fit.on_boundary

    def test_ar2_fit_is_causal_and_beats_profiled_grid(self):
        x = generate(AR2, 512, seed=52).series
        grid = dft(x)
        model = ar_model(2)
        fit = whittle_fit(grid, model)
        phi1, phi2, _ = fit.theta_hat
        roots = np.roots([-phi2, -phi1, 1.0])  # of 1 - phi1 z - phi2 z^2
        assert np.all(np.abs(roots) > 1.0)
        # oracle: the objective with sigma^2 at its exact minimiser
        # 2 pi mean(I |A|^2), which makes mean(I / f) = 1, on a 0.01 grid
        # over the whole box, causal and non-causal pairs alike
        pgram = np.abs(grid.coeffs) ** 2
        w = grid_frequencies(grid.T)
        phi2s = np.linspace(-0.95, 0.95, 191)[:, None]
        best = np.inf
        for phi1 in np.linspace(-1.9, 1.9, 381):
            transfer = np.abs(1 - phi1 * np.exp(1j * w) - phi2s * np.exp(2j * w)) ** 2
            s2 = 2 * np.pi * np.mean(pgram * transfer, axis=1)
            obj = 1 + np.log(s2 / (2 * np.pi)) - np.mean(np.log(transfer), axis=1)
            best = min(best, float(obj.min()))
        assert fit.objective_at_min <= best + 1e-12


class TestFittedDensity:
    """``WhittleFit.density`` and ``objective_at_min`` are, bit for bit, the
    model's density on the grid and the Whittle objective at theta_hat."""

    @pytest.mark.parametrize("spec, T", [
        (MODEL_REGISTRY["ar_g_0.6"], 512), (MODEL_REGISTRY["ar_g_0.6"], 257),
        (AR2, 512), (AR2, 100),
        (ModelSpec("ar", {"coeffs": (-0.4,), "innovation": "normal"}), 1000),
    ])
    @pytest.mark.parametrize("model", [ar_model(1), ar_model(2), ar_model(3), ar_model(4)],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("demean", [True, False])
    def test_bits_match_the_model(self, spec, T, model, demean):
        grid = dft(generate(spec, T, seed=T).series, demean=demean)
        fit = whittle_fit(grid, model)
        want = model.density_on_grid(T, fit.theta_hat)
        assert fit.density.dtype == want.dtype and fit.density.shape == (T,)
        assert np.array_equal(fit.density.view(np.int64), want.view(np.int64))
        assert fit.objective_at_min == whittle_objective(grid, model, fit.theta_hat)

    @pytest.mark.parametrize("model", [ar_model(1)], ids=lambda m: m.name)
    def test_bits_match_on_the_box_edge(self, model):
        x = np.cumsum(generate(MODEL_REGISTRY["normal"], 300, seed=4).series)
        grid = dft(x)
        fit = whittle_fit(grid, model)
        assert fit.on_boundary and fit.theta_hat[0] == 0.95
        want = model.density_on_grid(grid.T, fit.theta_hat)
        assert np.array_equal(fit.density.view(np.int64), want.view(np.int64))
        assert fit.objective_at_min == whittle_objective(grid, model, fit.theta_hat)

    def test_density_is_read_only(self):
        fit = whittle_fit(dft(SCALE_SERIES), ar_model(1))
        with pytest.raises(ValueError):
            fit.density[0] = 1.0


class TestScoreVariance:
    @pytest.mark.parametrize("T", [256, 512, 2**14])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bits_match_the_per_coordinate_composition(self, T, p):
        grid = dft(generate(AR2, T, seed=T + p).series)
        model = ar_model(p)
        theta = whittle_fit(grid, model).theta_hat
        got = whittle_score_variance(grid, model, theta, M=10)
        want = score_covariance(grid, model, theta, M=10)
        assert isinstance(got, CovMatrixEstimate) and (got.M, got.T) == (10, T)
        assert got.matrix.shape == (p + 1, p + 1)
        assert np.array_equal(got.matrix.view(np.int64), want.matrix.view(np.int64))

    def test_score_weights_are_neg_grad_of_reciprocal(self, rng):
        grid = dft(rng.standard_normal(512))
        model, theta, h = ar_model(2), np.array([0.5, -0.2, 1.3]), 1e-6

        def fd_weight(c):
            up, dn = theta.copy(), theta.copy()
            up[c] += h
            dn[c] -= h
            return WeightFunction(lambda w: ((1 / model.density(w, up) - 1 / model.density(w, dn))
                                             / (2 * h)).astype(complex))

        want = covariance_matrix_estimate([orthogonal_sample(grid, fd_weight(c), 10)
                                           for c in range(model.p + 1)])
        got = whittle_score_variance(grid, model, theta, M=10)
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=1e-6)

    @pytest.mark.parametrize("other, name", [("ar1", "str"), (1, "int"), (None, "NoneType")])
    def test_rejects_models_not_from_ar_model(self, rng, other, name):
        with pytest.raises(TypeError,
                           match=f"^whittle_score_variance takes an ARModel, not {name}$"):
            whittle_score_variance(dft(rng.standard_normal(64)), other, [0.2, 1.0], 5)

    @pytest.mark.parametrize("M", [0, 32, 40])
    def test_M_out_of_range(self, rng, M):
        with pytest.raises(ShiftRangeError, match=f"^M={M} out of range"):
            whittle_score_variance(dft(rng.standard_normal(64)), ar_model(1), [0.2, 1.0], M)

    def test_zero_sigma_names_the_density(self, rng):
        with pytest.raises(InvalidInputError, match="^ar1 spectral density is not positive"):
            whittle_score_variance(dft(rng.standard_normal(64)), ar_model(1), [0.2, 0.0], 5)

    def test_non_finite_weight_is_refused(self, rng):
        # f ~ 1e-321 is positive and finite, but f^2 underflows to zero
        with np.errstate(divide="ignore"), pytest.raises(
                InvalidInputError, match=r"^weight 'score\[ar1\]' is non-finite on the size-64"):
            whittle_score_variance(dft(rng.standard_normal(64)), ar_model(1), [0.2, 1e-160], 5)


class TestWhittleRows:
    """The rows a fit reads are one read-only grid constant per (T, p), and a
    fit from them is, bit for bit, a fit from rows built fresh."""

    @staticmethod
    def _fits(p):
        fits = []
        for seed in range(24):
            T = (128, 255, 512)[seed % 3]
            spec = (MODEL_REGISTRY["ar_g_0.6"], AR2, MODEL_REGISTRY["normal"])[seed % 3]
            x = generate(spec, T, seed=seed).series
            fits += [whittle_fit(dft(x), ar_model(p)), whittle_fit(dft(x[::-1]), ar_model(p))]
        return fits

    @pytest.mark.parametrize("p", [1, 2])
    def test_fit_matches_rows_built_fresh(self, monkeypatch, p):
        cached = self._fits(p)
        monkeypatch.setattr(whittle, "_whittle_rows", whittle._whittle_rows.__wrapped__)
        fresh = self._fits(p)
        assert all(f.iterations > 0 for f in fresh)
        for got, want in zip(cached, fresh):
            assert np.array_equal(got.theta_hat.view(np.int64), want.theta_hat.view(np.int64))
            assert np.array_equal(got.density.view(np.int64), want.density.view(np.int64))
            assert got.objective_at_min == want.objective_at_min
            assert got.iterations == want.iterations

    @pytest.mark.parametrize("T, p", [(64, 1), (100, 2), (257, 3)])
    def test_rows_are_read_only_grid_values(self, T, p):
        rows = whittle._whittle_rows(T, p)
        assert rows.shape == (2 * p + 1, T) and not rows.flags.writeable
        assert whittle._whittle_rows(T, p) is rows
        omega = grid_frequencies(T)
        for m in range(1, p + 1):
            assert np.array_equal(rows[m - 1], np.exp(1j * m * omega))
        for j in range(p + 1):
            assert np.array_equal(rows[p + j].real, np.cos(j * omega))
            assert not rows[p + j].imag.any()
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0


class TestFitBitsMatchReference:
    """A fit's theta_hat, density, objective and step count are, bit for bit,
    those of a second copy of its arithmetic written with np.mean, np.ones,
    np.clip and np.outer (``oracles.whittle_fit_reference``).  The series
    include a scale outside [2^-400, 2^400], where the fit rescales."""

    SERIES = [(MODEL_REGISTRY["ar_g_0.6"], 1.0), (MODEL_REGISTRY["ar_chi_0.9"], 1.0),
              (AR2, 1e-3), (MODEL_REGISTRY["normal"], 1e90), (MODEL_REGISTRY["y2"], 1e-90)]

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("T", [128, 511, 512, 1000, 2048])
    def test_fit_matches_reference(self, T, p):
        for i, (spec, scale) in enumerate(self.SERIES):
            grid = dft(scale * generate(spec, T, seed=[37, T, i]).series)
            fit = whittle_fit(grid, ar_model(p))
            theta, density, objective, iterations = whittle_fit_reference(grid, ar_model(p))
            assert fit.iterations == iterations > 0
            assert np.array_equal(fit.theta_hat.view(np.int64), theta.view(np.int64))
            assert np.array_equal(fit.density.view(np.int64), density.view(np.int64))
            assert fit.objective_at_min == objective


class TestExtremeScales:
    """Data far outside unit scale are fitted as at unit scale: the Newton
    steps run, with no warning, to the same phi.  Past about 1e+-150 the fit
    is refused, naming the scale."""

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e-150, 2.0**-500, 2.0**500])
    @pytest.mark.parametrize("model", [ar_model(1), ar_model(2)], ids=lambda m: m.name)
    def test_fit_matches_unit_scale(self, scale, model):
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 512, seed=12).series
        base = whittle_fit(dft(x), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = whittle_fit(dft(scale * x), model)
        assert fit.iterations > 0
        p = model.p
        np.testing.assert_allclose(fit.theta_hat[:p], base.theta_hat[:p], rtol=1e-12)
        np.testing.assert_allclose(fit.theta_hat[p], scale * base.theta_hat[p], rtol=1e-12)
        want = model.density_on_grid(512, fit.theta_hat)
        assert np.array_equal(fit.density.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scale", [1e154, 1e156, 1e-160, 1e-170])
    @pytest.mark.parametrize("model", [ar_model(1), ar_model(2)], ids=lambda m: m.name)
    def test_fit_past_the_float_range_is_refused(self, scale, model):
        # the periodogram's mean overflows, or leaves the normal floats; one
        # error names the scale, and no warning comes before it
        cause = ("overflows a float: the data's scale is too large" if scale > 1
                 else "underflows a float: the data's scale is too small")
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 512, seed=12).series
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = dft(scale * x)
            with pytest.raises(DegenerateDataError) as err:
                whittle_fit(grid, model)
        assert str(err.value) == f"periodogram {cause} for a Whittle fit"

    def test_constant_series_has_nothing_to_fit(self):
        with pytest.raises(InvalidInputError, match="periodogram is zero on the whole grid"):
            whittle_fit(dft(np.full(64, 3.0)), ar_model(1))
