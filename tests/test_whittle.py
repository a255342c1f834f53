"""Whittle objective, fitting, and the score-variance estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosample.models import MODEL_REGISTRY, ModelSpec, generate
from orthosample.spectral import InvalidInputError, dft, grid_frequencies
from orthosample.variance import CovMatrixEstimate, VarianceEstimate
from orthosample.whittle import (
    SpectralModel,
    ar_model,
    score_weight,
    whittle_fit,
    whittle_objective,
    whittle_score_variance,
)


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
            (ar_model(1, sigma=1.0), np.array([-0.4])),
            (ar_model(2), np.array([0.9, -0.5, 0.8])),
            (ar_model(2, sigma=2.0), np.array([1.2, -0.6])),
            (ar_model(3), np.array([0.4, -0.3, 0.2, 1.1])),
            (ar_model(3, sigma=1.5), np.array([0.4, -0.3, 0.2])),
        ],
        ids=["ar1", "ar1-fixed-sigma", "ar2", "ar2-fixed-sigma", "ar3",
             "ar3-fixed-sigma"],
    )
    def test_gradient_matches_finite_difference(self, model, theta):
        w = np.linspace(0.2, 6.0, 9)
        grad = np.asarray(model.gradient(w, theta))
        h = 1e-5
        for c in range(model.param_dim):
            up, dn = theta.copy(), theta.copy()
            up[c] += h
            dn[c] -= h
            fd = (np.asarray(model.density(w, up)) - np.asarray(model.density(w, dn))) / (2 * h)
            np.testing.assert_allclose(grad[c], fd, atol=1e-6)

    def test_box_is_binomial(self):
        assert ar_model(1).bounds == ((-0.95, 0.95), (0.0, np.inf))
        assert ar_model(2, sigma=1.0).bounds == ((-1.9, 1.9), (-0.95, 0.95))
        assert ar_model(3, sigma=1.0).bounds[1] == pytest.approx((-2.85, 2.85))

    def test_density_positivity_enforced(self):
        bad = SpectralModel(density=lambda w, th: np.cos(w),
                            gradient=lambda w, th: np.zeros((1, w.size)),
                            param_dim=1, bounds=((0.0, 1.0),), name="bad")
        with pytest.raises(InvalidInputError):
            bad.density_on_grid(16, np.array([0.5]))


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
        model = ar_model(1, sigma=1.0)
        theta = np.array([0.4])
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
        model = ar_model(1, sigma=1.0)
        grid = dft(x)
        fit = whittle_fit(grid, model)
        for phi in np.linspace(-0.9, 0.9, 7):
            assert fit.objective_at_min <= whittle_objective(grid, model, [phi]) + 1e-12

    def test_score_small_at_interior_minimum(self):
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 1024, seed=7).series
        grid = dft(x)
        model = ar_model(1)
        fit = whittle_fit(grid, model, tol=1e-8)
        assert not fit.on_boundary
        h = 1e-5
        for c in range(model.param_dim):
            up, dn = fit.theta_hat.copy(), fit.theta_hat.copy()
            up[c] += h
            dn[c] -= h
            deriv = (whittle_objective(grid, model, up)
                     - whittle_objective(grid, model, dn)) / (2 * h)
            assert abs(deriv) <= 1e-4

    def test_rejects_models_not_from_ar_model(self, rng):
        other = SpectralModel(density=lambda w, th: np.ones_like(w),
                              gradient=lambda w, th: np.zeros((1, w.size)),
                              param_dim=1, bounds=((0.0, 1.0),), name="flat")
        with pytest.raises(TypeError):
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
    @pytest.mark.parametrize("model", [ar_model(1), ar_model(2), ar_model(1, sigma=1.3),
                                       ar_model(2, sigma=0.7)], ids=lambda m: m.name)
    @pytest.mark.parametrize("demean", [True, False])
    def test_bits_match_the_model(self, spec, T, model, demean):
        grid = dft(generate(spec, T, seed=T).series, demean=demean)
        fit = whittle_fit(grid, model)
        want = model.density_on_grid(T, fit.theta_hat)
        assert fit.density.dtype == want.dtype and fit.density.shape == (T,)
        assert np.array_equal(fit.density.view(np.int64), want.view(np.int64))
        assert fit.objective_at_min == whittle_objective(grid, model, fit.theta_hat)

    @pytest.mark.parametrize("model", [ar_model(1), ar_model(1, sigma=2.0)],
                             ids=lambda m: m.name)
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
    def test_scalar_and_matrix_dispatch(self, rng):
        x = rng.standard_normal(512)
        grid = dft(x)
        v = whittle_score_variance(grid, ar_model(1, sigma=1.0), [0.2], M=10)
        assert isinstance(v, VarianceEstimate)
        cov = whittle_score_variance(grid, ar_model(1), [0.2, 1.0], M=10)
        assert isinstance(cov, CovMatrixEstimate)
        assert cov.matrix.shape == (2, 2)

    def test_score_weight_is_neg_grad_of_reciprocal(self):
        model = ar_model(1, sigma=1.0)
        theta = [0.5]
        w = np.linspace(0.3, 5.9, 7)
        got = score_weight(model, theta, 0)(w)
        h = 1e-6
        fd = (1.0 / np.asarray(model.density(w, [0.5 + h]))
              - 1.0 / np.asarray(model.density(w, [0.5 - h]))) / (2 * h)
        np.testing.assert_allclose(got.real, fd, atol=1e-5)
        np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)
