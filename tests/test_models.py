"""Simulation model generators: reproducibility, moments, stationarity."""

import pickle

import numpy as np
import pytest

from orthosample.models import (
    BURN_IN,
    MODEL_REGISTRY,
    ModelSpec,
    generate,
    generate_batch,
    generate_bivariate,
    generate_bivariate_batch,
    PERIODIC_SCALE,
    _entropy_streams,
)
from orthosample.spectral import ar_spectral_density


def sample_autocorr(x, lags):
    x = x - x.mean()
    c0 = np.dot(x, x) / x.size
    return np.array([np.dot(x[: -j], x[j:]) / x.size / c0 for j in lags])


class TestBasics:
    @pytest.mark.parametrize("tag", sorted(MODEL_REGISTRY))
    def test_reproducible_and_right_length(self, tag):
        spec = MODEL_REGISTRY[tag]
        out1 = generate(spec, 300, seed=42)
        out2 = generate(spec, 300, seed=42)
        assert out1.series.shape == (300,)
        np.testing.assert_array_equal(out1.series, out2.series)
        out3 = generate(spec, 300, seed=43)
        assert not np.array_equal(out1.series, out3.series)

    def test_seed_may_be_sequence(self):
        a = generate(MODEL_REGISTRY["normal"], 50, seed=[1, 2, 3])
        b = generate(MODEL_REGISTRY["normal"], 50, seed=[1, 2, 3])
        np.testing.assert_array_equal(a.series, b.series)

    def test_iid_normal_moments(self):
        x = generate(MODEL_REGISTRY["normal"], 100_000, seed=5).series
        T = x.size
        assert abs(x.mean()) < 4 / np.sqrt(T)
        assert abs(x.var() - 1.0) < 4 * np.sqrt(2 / T)

    def test_registry_tags(self):
        expected = {"normal", "t5", "x3", "x4", "x5", "x6", "x7", "x8",
                    "y1", "y2", "y3", "ar_g_0.6", "ar_chi_0.6", "ar_chi_0.9",
                    "pivot_i", "pivot_ii", "pivot_iii"}
        assert expected <= set(MODEL_REGISTRY)

    @pytest.mark.parametrize("tag, burn", [("pivot_iii", BURN_IN), ("pivot_ii", 0),
                                           ("x6", BURN_IN), ("normal", 0)])
    def test_burn_in_used(self, tag, burn):
        # pivot_iii's ARCH innovations run the burn-in; pivot_ii's t5 draws do not
        assert generate(MODEL_REGISTRY[tag], 100, seed=1).burn_in_used == burn

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            generate(ModelSpec("no_such_model"), 100, seed=0)
        with pytest.raises(ValueError):
            generate(MODEL_REGISTRY["normal"], 1, seed=0)


class TestStationarityChecks:
    def test_nonstationary_ar_rejected(self):
        with pytest.raises(ValueError, match="not stationary"):
            ModelSpec("ar", {"coeffs": (1.0,), "innovation": "normal"})
        with pytest.raises(ValueError, match="not stationary"):  # root on the unit circle
            ModelSpec("ar", {"coeffs": (1.5, -0.5), "innovation": "normal"})

    def test_stationary_ar_accepted(self):
        ModelSpec("ar", {"coeffs": (0.9,), "innovation": "normal"})
        ModelSpec("ar", {"coeffs": (1.5, -0.75), "innovation": "normal"})

    def test_arch_and_noncausal_bounds(self):
        with pytest.raises(ValueError, match=r"\balpha="):
            ModelSpec("arch1", {"alpha": 1.0})
        with pytest.raises(ValueError, match=r"\ba="):
            ModelSpec("noncausal_linear", {"a": 1.2, "innovation": "normal"})

    @pytest.mark.parametrize("tag, params, name", [
        ("ar_times_arch", {"coeffs": (1.5,), "alpha": 0.8}, "coeffs"),
        ("ar_times_arch", {"coeffs": (0.5,), "alpha": 1.2}, "alpha"),
        ("arch1", {"alpha": -0.1}, "alpha"),
        ("arch1", {"alpha": float("nan")}, "alpha"),
        ("arch_times_noncausal", {"alpha": 1.0, "a": 0.5}, "alpha"),
        ("arch_times_noncausal", {"alpha": 0.5, "a": 1.0}, "a"),
        ("pseudo_linear", {"b1": -1.2, "b2": -0.6, "arch_alpha": 0.5}, "b1"),
        ("pseudo_linear", {"b1": -0.8, "b2": 1.0, "arch_alpha": 0.5}, "b2"),
        ("pseudo_linear", {"b1": -0.8, "b2": -0.6, "arch_alpha": 1.5}, "arch_alpha"),
        ("noncausal_linear", {"a": 0.6, "innovation": "arch", "arch_alpha": 1.1}, "arch_alpha"),
        ("noncausal_linear", {"a": 0.6, "innovation": "chi2_1"}, "innovation"),
        ("ar", {"coeffs": (0.5,), "innovation": "t5"}, "innovation"),
    ])
    def test_bad_parameters_rejected_at_construction(self, tag, params, name):
        with pytest.raises(ValueError, match=rf"\b{name}="):
            ModelSpec(tag, params)

    @pytest.mark.parametrize("tag, params", [
        ("no_such_model", {}),
        ("ar", {"coeffs": (0.5,)}),
        ("arch1", {}),
        ("arch1", {"alhpa": 0.9}),
        ("iid_normal", {"alpha": 0.5}),
    ], ids=["unknown_tag", "missing_innovation", "missing_alpha", "misspelt_alpha",
            "extra_alpha"])
    def test_parameter_set_checked_at_construction(self, tag, params):
        # a spec that generate could not run fails when it is built, naming its tag
        with pytest.raises(ValueError, match=f"'{tag}'"):
            ModelSpec(tag, params)

    def test_params_are_a_read_only_copy(self):
        # a spec changed after its checks would fail deep in a generator, for
        # every later user of a shared registry spec
        with pytest.raises(TypeError):
            MODEL_REGISTRY["x5"].params["alpha"] = 1.5
        assert MODEL_REGISTRY["x5"].params["alpha"] == 0.8
        assert np.all(np.isfinite(generate(MODEL_REGISTRY["x5"], 100, seed=1).series))
        params = {"coeffs": (0.5,), "alpha": 0.8}
        spec = ModelSpec("ar_times_arch", params)
        params["alpha"] = 1.5
        del params["coeffs"]
        assert spec == MODEL_REGISTRY["y3"] and dict(spec.params) == {"coeffs": (0.5,), "alpha": 0.8}

    @pytest.mark.parametrize("tag", sorted(MODEL_REGISTRY))
    def test_spec_pickles(self, tag):
        spec = MODEL_REGISTRY[tag]
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.params == spec.params
        with pytest.raises(TypeError):
            copy.params["x"] = 1.0

    def test_arch_innovation_needs_its_coefficient(self):
        # no fallback: without arch_alpha the innovations would be iid normal
        with pytest.raises(ValueError, match="arch_alpha"):
            ModelSpec("noncausal_linear", {"a": 0.6, "innovation": "arch"})
        assert MODEL_REGISTRY["pivot_iii"].params["arch_alpha"] == 0.7

    def test_zero_noncausal_coefficient_is_white_noise(self):
        T, seed = 50, 1
        x = generate(ModelSpec("noncausal_linear", {"a": 0.0, "innovation": "normal"}),
                     T, seed=seed).series
        # J = 1: the draws cover t = 0 .. T + 1 and x_t = e_t
        np.testing.assert_array_equal(x, np.random.default_rng(seed).standard_normal(T + 2)[1:-1])
        spec = ModelSpec("pseudo_linear", {"b1": 0.0, "b2": 0.0, "arch_alpha": 0.5})
        assert np.all(np.isfinite(generate(spec, T, seed=seed).series))


@pytest.mark.slow
class TestUncorrelatedModels:
    @pytest.mark.parametrize("tag", ["x3", "x4", "x5", "x6", "x7", "x8"])
    def test_autocorrelations_vanish(self, tag):
        T = 100_000
        x = generate(MODEL_REGISTRY[tag], T, seed=17).series
        rho = sample_autocorr(x, range(1, 6))
        # the heavier-tailed constructions need a slightly wider band
        band = 4 / np.sqrt(T) if tag in ("x3", "x8") else 12 / np.sqrt(T)
        assert np.all(np.abs(rho) < band), rho

    def test_two_dependent_second_moment(self):
        x = generate(MODEL_REGISTRY["x3"], 100_000, seed=3).series
        assert abs(np.mean(x**2) - 1.0) < 0.05

    def test_noncausal_kills_correlation(self):
        x = generate(MODEL_REGISTRY["pivot_ii"], 100_000, seed=9).series
        rho = sample_autocorr(x, range(1, 6))
        assert np.all(np.abs(rho) < 4 / np.sqrt(x.size)), rho

    def test_arch_kurtosis_grows(self):
        kurts = []
        for T in (1000, 10_000, 100_000):
            x = generate(MODEL_REGISTRY["x5"], T, seed=21).series
            kurts.append(np.mean(x**4) / np.mean(x**2) ** 2)
        assert kurts[0] < kurts[-1]


class TestPeriodicModel:
    def test_period12_variance_profile(self):
        T = 120_000
        x = generate(MODEL_REGISTRY["x8"], T, seed=13).series
        by_phase = x.reshape(-1, 12)
        profile = np.mean(by_phase**2, axis=0)
        scale_sq = np.asarray(PERIODIC_SCALE, dtype=float) ** 2
        np.testing.assert_allclose(profile / profile[0], scale_sq / scale_sq[0],
                                   rtol=0.15)


class TestBivariate:
    def test_identical_paths_when_rho_one(self):
        xo, yo = generate_bivariate(0.0, 1.0, 200, seed=4)
        np.testing.assert_allclose(xo.series, yo.series, atol=1e-12)

    def test_independent_when_rho_zero(self):
        xo, yo = generate_bivariate(0.0, 0.0, 100_000, seed=4)
        x, y = xo.series, yo.series
        r = np.corrcoef(x, y)[0, 1]
        # AR(0.8) pairs decorrelate slower than iid; allow a generous band
        assert abs(r) < 20 / np.sqrt(x.size)

    def test_nonstationary_delta_rejected(self):
        with pytest.raises(ValueError):
            generate_bivariate(0.5, 0.0, 100, seed=0)
        with pytest.raises(ValueError):
            generate_bivariate(0.0, 1.5, 100, seed=0)

    @pytest.mark.slow
    def test_delta_changes_the_spectrum(self):
        T = 100_000
        x0 = generate_bivariate(0.0, 0.0, T, seed=8)[1].series
        x1 = generate_bivariate(0.1, 0.0, T, seed=8)[1].series
        # crude averaged periodograms over coarse bins
        def smoothed(x):
            from orthosample.spectral import dft
            per = np.abs(dft(x).coeffs) ** 2
            return per[: T // 2].reshape(100, -1).mean(axis=1)

        s0, s1 = smoothed(x0), smoothed(x1)
        rel = np.abs(s1 - s0) / s0
        assert rel.max() > 0.2


class TestSpectralDensity:
    def test_white_noise_constant(self):
        g = ar_spectral_density(np.array([0.3, 1.0, 2.0]), (), 1.0)
        np.testing.assert_allclose(g, 1 / (2 * np.pi), rtol=1e-12)

    def test_ar1_at_zero(self):
        g = ar_spectral_density(0.0, (0.6,), 1.0)
        assert g == pytest.approx(1 / (2 * np.pi) / 0.16, abs=1e-4)

    def test_integral_equals_variance(self):
        w = np.linspace(0, 2 * np.pi, 100_001)
        g = ar_spectral_density(w, (0.6,), 1.0)
        assert np.trapezoid(g, w) == pytest.approx(1 / (1 - 0.36), abs=1e-4)


def word_rows(R, words=(7, 2**32 - 1, 3)):
    """R uint32 entropy rows [*words, r] and the same seeds as lists, whose
    elements are single words, so both give the same SeedSequence entropy."""
    lists = [[*words, r] for r in range(R)]
    return np.array(lists, dtype=np.uint32), lists


def blocks(tag, seeds):
    """The T = 64 output blocks of a registry model, or of the bivariate pair
    for "pair"."""
    if tag == "pair":
        return generate_bivariate_batch(0.1, 0.5, 64, seeds)
    return [generate_batch(MODEL_REGISTRY[tag], 64, seeds)]


class TestEntropyRows:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_states_equal_default_rng(self, n):
        rows = np.random.default_rng(n).integers(0, 2**32, size=(40, n), dtype=np.uint32)
        rows[0], rows[1], rows[2, ::2] = 0, 0xFFFFFFFF, 0
        for row, rng in zip(rows, _entropy_streams(rows), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(row).bit_generator.state

    def test_each_row_restarts_a_used_generator(self):
        # a uint32 draw leaves half a 64-bit word buffered (has_uint32 = 1);
        # the next row's state must not keep it
        rows, _ = word_rows(4)
        for row, rng in zip(rows, _entropy_streams(rows), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(row).bit_generator.state
            rng.integers(0, 10, size=3, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("R", [1, 2, 7])
    @pytest.mark.parametrize("tag", [*sorted(MODEL_REGISTRY), "pair"])
    def test_row_columns_equal_list_seed_columns(self, tag, R):
        rows, lists = word_rows(R)
        for got, want in zip(blocks(tag, rows), blocks(tag, lists), strict=True):
            assert got.series.tobytes() == want.series.tobytes()

    @pytest.mark.parametrize("tag", ["t5", "x5", "x7", "ar_chi_0.9", "pivot_iii", "pair"])
    def test_reversed_rows_reverse_the_columns(self, tag):
        rows, _ = word_rows(7, words=(2**31, 11))
        for fwd, back in zip(blocks(tag, rows), blocks(tag, rows[::-1]), strict=True):
            assert back.series.tobytes() == fwd.series[::-1].tobytes()

    @pytest.mark.parametrize("tag", [*sorted(MODEL_REGISTRY), "pair"])
    def test_empty_block_behaves_as_no_seeds(self, tag):
        want = [(0, 64)] * (2 if tag == "pair" else 1)
        for seeds in (np.empty((0, 3), np.uint32), []):
            assert [out.series.shape for out in blocks(tag, seeds)] == want
