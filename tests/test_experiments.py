"""Config parsing and the Monte Carlo experiment runner."""

import concurrent.futures
import functools
import hashlib
import importlib.util
import json
import multiprocessing
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosample import experiments
from orthosample.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    emit,
    parse_config,
    run_experiment,
)
from orthosample.htests import (box_pierce_block, goodness_of_fit_test, portmanteau_block,
                                robust_portmanteau_block)
from orthosample.models import MODEL_REGISTRY, generate_batch, generate_bivariate_batch
from orthosample.spectral import DegenerateDataError, ar_spectral_density

def quiet(msg):
    pass


def tiny_config(**kw):
    base = dict(experiment="table_uncorrelated_null", models=("normal",),
                T=(64,), nrep=6, M=8, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


class TestParseConfig:
    def test_key_value_format(self):
        cfg = parse_config(
            "experiment = table_uncorrelated_null\n"
            "models = normal, x5   # both nulls\n"
            "T = 100, 500\n"
            "nrep = 50\n"
            "M = select\n"
            "search_set = 10..30\n"
            "seed = 9\n"
        )
        assert cfg.experiment == "table_uncorrelated_null"
        assert cfg.models == ("normal", "x5")
        assert cfg.T == (100, 500)
        assert cfg.M is None
        assert cfg.search_set == tuple(range(10, 31))
        assert cfg.seed == 9

    def test_json_format(self):
        cfg = parse_config(json.dumps({
            "experiment": "qq_t10", "models": ["pivot_i"], "T": [200],
            "nrep": 10, "M": 5,
        }))
        assert cfg.experiment == "qq_t10"
        assert cfg.M == 5

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_config("models = normal\n")  # missing experiment
        with pytest.raises(ConfigError):
            parse_config("experiment = qq_t10\nfrobnicate = 1\n")
        with pytest.raises(ConfigError):
            parse_config("experiment = not_an_experiment\n")
        with pytest.raises(ConfigError):
            parse_config("experiment = qq_t10\nmodels = martian\n")
        with pytest.raises(ConfigError):
            parse_config("experiment = qq_t10\nnrep\n")
        with pytest.raises(ConfigError):
            parse_config("{bad json")
        with pytest.raises(ConfigError, match="unknown method 'bootstrap'"):
            parse_config("experiment = table_uncorrelated_null\nmethods = bootstrap\n")
        for line in ("B = 20", "n_boot = 500"):
            with pytest.raises(ConfigError, match=f"unknown config key '{line.split()[0]}'"):
                parse_config(f"experiment = table_uncorrelated_null\n{line}\n")

    @pytest.mark.parametrize("key, raw", [("nrep", "ten"), ("T", "100, x"),
                                          ("search_set", "10..x"), ("search_set", "5.."),
                                          ("gof_phi", "half"), ("rho", "none"),
                                          ("delta", "none")])
    def test_bad_value_names_key_and_value(self, key, raw):
        with pytest.raises(ConfigError, match=f"'{key}'.*'{raw}'"):
            parse_config(f"experiment = table_uncorrelated_null\n{key} = {raw}\n")

    @pytest.mark.parametrize("raw", ["30..10", "0, 3", "-2..4"])
    def test_search_set_must_be_positive_and_nonempty(self, raw):
        with pytest.raises(ConfigError, match="search_set"):
            parse_config(f"experiment = table_uncorrelated_null\nsearch_set = {raw}\n")
        with pytest.raises(ConfigError, match="search_set"):
            tiny_config(search_set=())

    def test_search_set_from_code_is_parsed_too(self):
        assert tiny_config(search_set="10..12").search_set == (10, 11, 12)
        assert tiny_config(search_set=[7, 9]).search_set == (7, 9)

    @pytest.mark.parametrize("key, raw", [("T", "1"), ("T", "0"), ("T", "100, 1"),
                                          ("alphas", "1.5"), ("alphas", "0"),
                                          ("alphas", "0.05, 1"), ("alphas", "-0.1"),
                                          ("rho", "2"), ("rho", "-1.5"), ("delta", "0.3"),
                                          ("delta", "nan"), ("seed", "-1"),
                                          # these ran to the end: NaN rows, or
                                          # gof_sigma = -1 as if it were 1
                                          ("L", "0"), ("L", "-2"), ("M", "0"),
                                          ("gof_sigma", "0"), ("gof_sigma", "nan"),
                                          ("gof_sigma", "-1"), ("gof_phi", "1.5")])
    def test_lengths_and_levels_out_of_range(self, key, raw):
        for head in ("experiment = table_uncorrelated_null\n",
                     "experiment = table_gof_null\nmodels = ar_g_0.6\n"
                     "gof_phi = 0.6\ngof_sigma = 1\n"):
            with pytest.raises(ConfigError, match=key):
                parse_config(f"{head}{key} = {raw}\n")
        value = tuple(float(v) for v in raw.split(","))
        if key == "T":
            value = tuple(int(v) for v in value)
        if key not in ("T", "alphas"):
            (value,) = value
        with pytest.raises(ConfigError, match=key):
            tiny_config(**{key: value})

    # the range rule 1 <= L, M < T/2 of the methods that use it, refused where
    # it fails at every T: L and a fixed M for the orthogonal tests, a fixed M
    # for qq_t10 and the equality test
    @pytest.mark.parametrize("text, message", [
        ("T = 3\nL = 5", r"^L=5 out of range \[1, T/2\) for T=3$"),
        ("T = 100\nM = 60", r"^M=60 out of range \[1, T/2\) for T=100$"),
        ("T = 8, 10\nL = 5\nM = 3", r"^L=5 out of range \[1, T/2\) for T=10$"),
        ("T = 100, 64\nL = 50\nM = 50", r"^L=50 out of range"),  # L first
        ("experiment = table_gof_null\nmodels = ar_g_0.6\ngof_phi = 0.6\ngof_sigma = 1\n"
         "T = 100\nM = 60", r"^M=60 out of range"),
        ("experiment = table_uncorrelated_power\nT = 100\nL = 50\n"
         "methods = box_pierce, orthogonal", r"^L=50 out of range"),
        ("experiment = qq_t10\nmodels = pivot_i\nT = 8\nM = 5", r"^M=5 out of range"),
        ("experiment = table_equality\nT = 100\nM = 60", r"^M=60 out of range"),
    ])
    def test_shift_range_failing_at_every_T_is_refused(self, text, message):
        head = "" if "experiment" in text else "experiment = table_uncorrelated_null\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(head + text)

    @pytest.mark.parametrize("text", [
        "T = 8, 64\nL = 5\nM = 3",  # the T = 8 cells give NaN rows
        "T = 8\nL = 5\nmethods = box_pierce, robust",  # the baselines take L < T
        "experiment = qq_t10\nmodels = pivot_i\nT = 8\nL = 5\nM = 3",  # L unused
        "experiment = table_equality\nT = 100\nL = 60",  # L unused
        "T = 100\nM = 60\nmethods = box_pierce",  # M unused
    ])
    def test_shift_range_passing_at_some_T_or_unused_builds(self, text):
        head = "" if "experiment" in text else "experiment = table_uncorrelated_null\n"
        parse_config(head + text)

    @pytest.mark.parametrize("key", ["models", "methods"])
    @pytest.mark.parametrize("experiment", ["table_uncorrelated_null", "table_gof_null"])
    def test_empty_models_or_methods_rejected(self, key, experiment):
        gof = "gof_phi = 0.6\ngof_sigma = 1\n" if "gof" in experiment else ""
        with pytest.raises(ConfigError, match=key):
            parse_config(f"experiment = {experiment}\n{gof}{key} =\n")
        with pytest.raises(ConfigError, match=key):
            tiny_config(**{key: ()})

    def test_empty_lists_allowed_where_unread(self):
        assert tiny_config(experiment="qq_t10", methods=()).methods == ()
        cfg = parse_config("experiment = table_equality\nmodels =\nmethods =\n")
        assert cfg.models == () and cfg.methods == ()

    def test_method_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(methods=("sorcery",))

    def test_methods_come_from_methods_table(self, monkeypatch):
        monkeypatch.setitem(experiments.METHODS, "ljung_box",
                            experiments.METHODS["box_pierce"])
        assert tiny_config(methods=("ljung_box",)).methods == ("ljung_box",)
        with pytest.raises(ConfigError, match="table_equality"):
            tiny_config(methods=("equality",))

    @pytest.mark.parametrize("key, value", [("nrep", 10.7), ("T", [100.9]), ("L", 5.5),
                                            ("M", 8.5), ("p", 4.5), ("seed", 1.5),
                                            ("workers", 1.5), ("search_set", [10, 12.5]),
                                            # int(True) == True, yet a boolean is no count
                                            ("nrep", True), ("seed", False),
                                            ("L", np.True_), ("T", [np.True_])])
    def test_json_numbers_obey_integer_rule(self, key, value):
        text = json.dumps({"experiment": "table_uncorrelated_null", key: value},
                          default=lambda v: v.item())
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(text)
        # and built in code: nrep = 2.5 used to build, and its run raised TypeError
        with pytest.raises(ConfigError, match=f"'{key}'.*is not an integer"):
            tiny_config(**{key: value})

    def test_integral_json_numbers_are_ints(self):
        cfg = parse_config(json.dumps({"experiment": "table_uncorrelated_null", "nrep": 10.0,
                                       "T": [100.0], "L": 5.0, "M": 8.0, "p": 4.0,
                                       "search_set": [10.0, 12]}))
        values = (cfg.nrep, cfg.T[0], cfg.L, cfg.M, cfg.p, *cfg.search_set)
        assert values == (10, 100, 5, 8, 4, 10, 12)
        assert all(type(v) is int for v in values)

    def test_integral_numbers_from_code_are_ints(self):
        cfg = tiny_config(T=[64.0], nrep=np.int64(6), L=5.0, M=8.0, p=4.0, seed=123.0,
                          workers=1.0)
        values = (*cfg.T, cfg.nrep, cfg.L, cfg.M, cfg.p, cfg.seed, cfg.workers)
        assert values == (64, 6, 5, 8, 4, 123, 1) and all(type(v) is int for v in values)
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        assert strip(run_experiment(cfg, progress=quiet)) == strip(
            run_experiment(tiny_config(), progress=quiet))

    def test_search_set_from_code_obeys_integer_rule(self):
        with pytest.raises(ConfigError, match=r"'search_set'.*M=10\.5 is not an integer"):
            tiny_config(search_set=(10.5, 12))
        assert tiny_config(search_set=(10.0, np.int64(12)), p=4.0).search_set == (10, 12)
        assert type(tiny_config(p=4.0).p) is int

    @pytest.mark.parametrize("key, raw, message", [
        ("beta", "2", r"beta=2\.0 outside \(0, 1\]"), ("beta", "0", "beta=0.0 outside"),
        ("b", "1.5", "bandwidth must lie in"), ("b", "0", "bandwidth must lie in"),
        ("p", "1", "p must be >= 2"), ("p", "0", "p must be >= 2")])
    def test_tuning_independent_of_T_checked_up_front(self, key, raw, message):
        # each fails for every T, so the config fails, not each of its cells
        for experiment in ("table_equality", "table_uncorrelated_null"):
            with pytest.raises(ConfigError, match=message):
                parse_config(f"experiment = {experiment}\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=message):
            tiny_config(**{key: float(raw) if key != "p" else int(raw)})

    @pytest.mark.parametrize("missing", ["gof_phi", "gof_sigma"])
    def test_gof_needs_null_parameters(self, missing):
        params = {"gof_phi": 0.6, "gof_sigma": 1.0}
        del params[missing]
        with pytest.raises(ConfigError, match=missing):
            ExperimentConfig(experiment="table_gof_null", models=("ar_g_0.6",),
                             T=(100,), nrep=2, **params)
        with pytest.raises(ConfigError, match="gof_phi and gof_sigma"):
            parse_config("experiment = table_gof_power\nmodels = ar_g_0.6\n")


# Each key has one rule, whatever the source: a file's line, a JSON value and
# a value in code. (key, file, JSON, code, field) for values that build, and
# (key, file, JSON, code) for values that each source must refuse.
HEAD = {"experiment": "table_gof_null", "models": "ar_g_0.6", "gof_phi": 0.6, "gof_sigma": 1}
GOOD_VALUES = [
    ("experiment", "table_gof_power", "table_gof_power", "table_gof_power", "table_gof_power"),
    ("models", "normal", ["normal"], "normal", ("normal",)),
    ("models", "normal, x5", ["normal", "x5"], ("normal", "x5"), ("normal", "x5")),
    ("T", "64, 128.0", [64, 128.0], (64.0, np.int64(128)), (64, 128)),
    ("T", "1e2", 100.0, "100", (100,)),
    ("nrep", "5.0", 5.0, "5", 5),
    ("M", "select", None, "none", None),
    ("M", "8.0", 8, 8.0, 8),
    ("search_set", "10.0..20", [10, 11.0, *range(12, 21)], "10..20", tuple(range(10, 21))),
    ("search_set", "7, 9", "7, 9", [7, 9.0], (7, 9)),
    ("p", "4.0", 4, np.int64(4), 4),
    ("L", "5.0", 5.0, "5", 5),
    ("b", "0.3", 0.3, "0.3", 0.3),
    ("b", "none", None, None, None),
    ("beta", "0.5", 0.5, "0.5", 0.5),
    ("beta", "estimate", "estimate", "estimate", "estimate"),
    ("methods", "box_pierce", ["box_pierce"], "box_pierce", ("box_pierce",)),
    ("alphas", "0.05", 0.05, 0.05, (0.05,)),
    ("alphas", "0.01, 0.1", [0.01, 0.1], (0.01, "0.1"), (0.01, 0.1)),
    ("seed", "12345678901234567890", 12345678901234567890, "12345678901234567890",
     12345678901234567890),
    ("seed", "1e1", 10.0, 10, 10),
    ("workers", "2", 2, "2.0", 2),
    ("gof_phi", "0.5", 0.5, "0.5", 0.5),
    ("gof_sigma", "2", 2, "2.0", 2.0),
    ("rho", "0.5", 0.5, "0.5", 0.5),
    ("delta", "-0.1", -0.1, "-0.1", -0.1),
]
BAD_VALUES = [
    ("experiment", "custom", "custom", "custom"),
    ("models", "martian", ["normal", "martian"], "martian"),
    ("T", "100, x", [100, "x"], (100, 10.5)),
    ("T", "1", [64, 1], 1),
    ("nrep", "ten", True, "10.5"),
    ("nrep", "0", 0.0, "-1"),
    ("M", "8.5", 8.5, "eight"),
    ("search_set", "10..x", [10, 12.5], "30..10"),
    ("search_set", "10.5..20", "5..", (0, 3)),
    ("p", "1", 4.5, "4.5"),
    ("L", "2.5", 0, True),
    ("b", "1.5", "half", 0),
    ("beta", "2", "x", 0),
    ("methods", "bootstrap", ["equality"], "sorcery"),
    ("alphas", "0.05, 1", [0.05, "x"], 1.5),
    ("seed", "-1", True, "1.5"),
    ("workers", "0", 1.5, "two"),
    ("gof_phi", "half", 1.5, "1.5"),
    ("gof_sigma", "0", -1, "nan"),
    ("rho", "none", 2, "2"),
    ("delta", "nan", "none", 0.3),
    # a real refuses a boolean, a NaN and an infinity from every source
    ("b", "nan", True, float("nan")),
    ("beta", "true", True, np.True_),
    ("alphas", "inf", [0.05, True], float("inf")),
    ("gof_phi", "-inf", False, np.True_),
    ("gof_sigma", "inf", True, np.True_),
    ("rho", "nan", True, np.True_),
    ("delta", "true", False, np.False_),
]
# A valid value of every numeric key, integral where the key's range allows
NUMBERS = {"T": 64, "nrep": 5, "M": 8, "search_set": 12, "p": 4, "L": 5, "seed": 7,
           "workers": 1, "b": 0.25, "beta": 1, "alphas": 0.05, "gof_phi": 0,
           "gof_sigma": 2, "rho": 1, "delta": 0}


def _spellings(kind: str, valid) -> tuple:
    """The values of one class as a file's line, a JSON value and a value in
    code can hold them: booleans, non-finite floats, numeric strings of
    ``valid`` or other spellings of the number ``valid``."""
    if kind == "boolean":
        return ["true", "True", "false"], [True, False], [True, False, np.True_, np.False_]
    if kind == "non-finite":
        nan, inf = float("nan"), float("inf")
        return ["nan", "inf", "-inf", "NaN"], [nan, inf, -inf], [nan, -inf, np.float64(nan)]
    strings = [str(valid), repr(float(valid)), f"{float(valid):e}"]
    if kind == "string":
        return strings, strings, strings
    numbers = [valid, float(valid), np.float64(valid)]
    integers = [np.int64(valid)] if float(valid).is_integer() else []
    return strings, numbers, numbers + integers


def _from_every_source(key, file, json_value, code_value) -> list:
    """A file's line, a JSON value and a value in code for ``key`` over HEAD,
    each built into a config: a thunk per source."""
    head = {k: v for k, v in HEAD.items() if k != key}
    lines = "".join(f"{k} = {v}\n" for k, v in {**head, key: file}.items())
    text = json.dumps({**head, key: json_value}, default=lambda v: v.item())
    return [lambda: parse_config(lines), lambda: parse_config(text),
            lambda: ExperimentConfig(**{**head, key: code_value})]


class TestOneRulePerKey:
    @pytest.mark.parametrize("key, file, json_value, code_value, want", GOOD_VALUES)
    def test_every_source_builds_the_same_config(self, key, file, json_value, code_value,
                                                 want):
        configs = [build() for build in _from_every_source(key, file, json_value, code_value)]
        assert configs[0] == configs[1] == configs[2]
        # repr tells 5 from 5.0, which == does not
        assert all(repr(getattr(cfg, key)) == repr(want) for cfg in configs)

    @pytest.mark.parametrize("key, file, json_value, code_value", BAD_VALUES)
    def test_every_source_refuses_a_bad_value(self, key, file, json_value, code_value):
        # a refused conversion quotes the key; three range messages name it by
        # what it holds
        name = {"models": "model tag", "methods": "method", "b": "bandwidth"}.get(key, key)
        for build in _from_every_source(key, file, json_value, code_value):
            with pytest.raises(ConfigError, match=rf"'{key}'|\b{name}\b"):
                build()

    @pytest.mark.parametrize("kind", ["boolean", "non-finite", "string", "number"])
    @pytest.mark.parametrize("key", sorted(NUMBERS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_one_rule_per_number_from_every_source(self, key, kind, data):
        # a boolean and a non-finite float are refused naming the key; a
        # numeric string, which every source may hold, and any other spelling
        # of a valid number build the config of that number
        file, json_value, code_value = (data.draw(st.sampled_from(values), label=source)
                                        for values, source in zip(_spellings(
                                            kind, NUMBERS[key]), ("file", "JSON", "code")))
        builds = _from_every_source(key, file, json_value, code_value)
        if kind in ("boolean", "non-finite"):
            for build in builds:
                with pytest.raises(ConfigError, match=f"^bad value for '{key}'"):
                    build()
            return
        want = ExperimentConfig(**{**HEAD, key: NUMBERS[key]})
        for cfg in (build() for build in builds):
            assert cfg == want and repr(getattr(cfg, key)) == repr(getattr(want, key))

    def test_every_key_is_covered(self):
        keys = set(ExperimentConfig.__dataclass_fields__)
        assert {case[0] for case in GOOD_VALUES} == {case[0] for case in BAD_VALUES} == keys


class TestRunExperiment:
    def test_single_cell_rows(self):
        table = run_experiment(tiny_config(), progress=quiet)
        assert len(table.rows) == 2  # one per alpha level
        row = table.rows[0]
        assert row.model == "normal" and row.T == 64 and row.method == "orthogonal"
        assert 0.0 <= row.rate <= 100.0

    def test_determinism(self):
        t1 = run_experiment(tiny_config(), progress=quiet)
        t2 = run_experiment(tiny_config(), progress=quiet)
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        assert strip(t1) == strip(t2)

    def test_worker_invariance(self, monkeypatch):
        # blocks of three replications at T = 64, so the pool gets several per cell
        monkeypatch.setattr(experiments, "BLOCK_POINTS", 3 * (64 + experiments.BURN_IN))
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        for cfg in [tiny_config(nrep=7, methods=("orthogonal", "box_pierce")),
                    ExperimentConfig(experiment="qq_t10", models=("pivot_i",),
                                     T=(64,), nrep=7, M=5, seed=1),
                    ExperimentConfig(experiment="table_equality", T=(128,), nrep=5,
                                     rho=0.5, delta=0.1, seed=2, beta=0.5),
                    tiny_config(T=(8, 64), L=5, M=3)]:  # the T = 8 cell fails
            t1 = run_experiment(replace(cfg, workers=1), progress=quiet)
            t2 = run_experiment(replace(cfg, workers=2), progress=quiet)
            assert strip(t1) == strip(t2)
            assert t1.metadata.get("beta_hat_mean") == t2.metadata.get("beta_hat_mean")
            assert t1.quantile_pairs.keys() == t2.quantile_pairs.keys()
            for label, (emp, ref) in t1.quantile_pairs.items():
                np.testing.assert_array_equal(emp, t2.quantile_pairs[label][0])
                np.testing.assert_array_equal(ref, t2.quantile_pairs[label][1])
        assert any(np.isnan(r.rate) for r in t1.rows)
        assert not all(np.isnan(r.rate) for r in t1.rows)

    def test_one_pool_per_run(self, monkeypatch):
        made = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg = tiny_config(T=(64, 100), methods=("orthogonal", "box_pierce"))  # 4 cells
        run_experiment(replace(cfg, workers=1), progress=quiet)
        assert made == []
        run_experiment(replace(cfg, workers=2), progress=quiet)
        assert len(made) == 1

    def test_progress_contract(self):
        calls = []

        def progress(msg):
            calls.append(msg)
            if len(calls) == 2:  # at the end of the second cell
                time.sleep(0.25)

        cfg = tiny_config(methods=("orthogonal", "box_pierce"))
        table = run_experiment(cfg, progress=progress)
        assert len(calls) == 2 + 1  # once per cell, once at the end
        time_ms = {r.method: r.time_ms for r in table.rows}
        assert time_ms["box_pierce"] >= 250.0 > time_ms["orthogonal"]

    def test_se_definition(self):
        table = run_experiment(tiny_config(nrep=20), progress=quiet)
        for row in table.rows:
            p = row.rate / 100
            assert row.se == pytest.approx(100 * np.sqrt(p * (1 - p) / 20), abs=1e-9)

    def test_group_methods_share_their_replications(self):
        # a (model, T) group is generated once, seeded from its first cell's
        # index, and each method's rows come from its kernel on that block
        methods = ("orthogonal", "box_pierce", "robust")
        cfg = tiny_config(models=("x5", "normal"), T=(64, 100), nrep=9, methods=methods,
                          alphas=(0.2, 0.5))
        rows = run_experiment(cfg, progress=quiet).rows
        groups = [(m, T) for m in cfg.models for T in cfg.T]
        for g, (model, T) in enumerate(groups):
            seeds = [[cfg.seed, 3 * g, r] for r in range(cfg.nrep)]
            block = generate_batch(MODEL_REGISTRY[model], T, seeds).series
            want = [portmanteau_block(block, L=cfg.L, M=cfg.M, search_set=cfg.search_set,
                                      p=cfg.p).p_values.tolist(),
                    box_pierce_block(block, cfg.L).p_values.tolist(),
                    robust_portmanteau_block(block, cfg.L).p_values.tolist()]
            job = (cfg, 3 * g, (model, T), methods, range(cfg.nrep))
            assert experiments._block_values(job) == want
            for j, pvals in enumerate(want):
                cell_rows = rows[2 * (3 * g + j):2 * (3 * g + j) + 2]
                assert [(r.model, r.T, r.method) for r in cell_rows] == [
                    (model, T, methods[j])] * 2
                assert [r.rate for r in cell_rows] == [
                    100.0 * np.count_nonzero(np.array(pvals) < a) / cfg.nrep
                    for a in cfg.alphas]

    def test_group_results_do_not_depend_on_workers_or_block_size(self, monkeypatch):
        cfg = tiny_config(models=("x5", "normal"), nrep=7,
                          methods=("orthogonal", "box_pierce", "robust"))
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        whole = strip(run_experiment(cfg, progress=quiet))
        # blocks of three replications: each group splits into three blocks
        monkeypatch.setattr(experiments, "BLOCK_POINTS", 3 * (64 + experiments.BURN_IN))
        for workers in (1, 2):
            assert strip(run_experiment(replace(cfg, workers=workers), progress=quiet)) == whole

    def test_method_failing_in_one_pool_block_fails_only_its_cell(self, monkeypatch):
        # replication 6 of the x5 group is constant: Box-Pierce fails on the
        # block that holds it, in a worker process
        real = experiments.generate_batch

        def with_constant_rep6(spec, T, seeds):
            sim = real(spec, T, seeds)
            series = sim.series.copy()
            for j, seed in enumerate(seeds):
                if spec is MODEL_REGISTRY["x5"] and seed[2] == 6:
                    series[j] = 1.5
            return replace(sim, series=series)

        monkeypatch.setattr(experiments, "generate_batch", with_constant_rep6)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        monkeypatch.setattr(experiments, "BLOCK_POINTS", 3 * (64 + experiments.BURN_IN))
        cfg = tiny_config(models=("x5", "normal"), nrep=7, workers=2,
                          methods=("box_pierce", "orthogonal"))
        failed = {(r.model, r.method) for r in run_experiment(cfg, progress=quiet).rows
                  if np.isnan(r.rate)}
        assert failed == {("x5", "box_pierce")}

    def test_groups_split_into_even_blocks(self, monkeypatch):
        # nrep (T + 1000) / BLOCK_POINTS = 7/3 rounds up to three blocks, of
        # sizes that differ by at most one
        sizes, real = [], experiments._block_values

        def recording(job):
            sizes.append(job[-1])
            return real(job)

        monkeypatch.setattr(experiments, "_block_values", recording)
        monkeypatch.setattr(experiments, "BLOCK_POINTS", 3 * (64 + experiments.BURN_IN))
        run_experiment(tiny_config(nrep=7), progress=quiet)
        assert len(sizes) == 3 and max(map(len, sizes)) - min(map(len, sizes)) <= 1
        assert sorted(r for reps in sizes for r in reps) == list(range(7))

    def test_desk_configs_run_one_block_per_group(self, monkeypatch):
        # every checked-in config at its desk nrep runs each (model, T) group
        # as one block of all its replications; the stand-in only records
        jobs = []
        monkeypatch.setattr(experiments, "_block_values",
                            lambda job: jobs.append(job) or [ValueError("not run")] * len(job[3]))
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
        assert len(paths) == 10
        for path in paths:
            cfg = parse_config(path.read_text())
            jobs.clear()
            run_experiment(cfg, progress=quiet)
            groups = {job[2] for job in jobs}
            assert [job[-1] for job in jobs] == [range(cfg.nrep)] * len(groups), path.name

    @pytest.mark.parametrize("seed", [0, 101, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 7,
                                      2**96 + 1])
    def test_entropy_rows_give_the_list_seed_streams(self, seed):
        rows = experiments._entropy_rows(seed, 3, range(5, 9))
        assert rows.dtype == np.uint32
        for r, row in zip(range(5, 9), rows):
            want = np.random.default_rng([seed, 3, r]).bit_generator.state
            assert np.random.default_rng(row).bit_generator.state == want

    @pytest.mark.parametrize("experiment", ["table_uncorrelated_null", "table_equality"])
    @pytest.mark.parametrize("seed", [2**40 + 5, 2**64 + 7])
    def test_large_seed_draws_the_list_seed_rows(self, experiment, seed):
        # 2^40 + 5 takes two words, and a plain uint32 cast would wrap it to
        # 5; 2^64 + 7 takes three, so its rows of five words pass SeedSequence's
        # four-word pool
        reps = range(2, 6)
        seeds = [[seed, 4, r] for r in reps]
        if experiment == "table_equality":
            cfg = ExperimentConfig(experiment=experiment, T=(128,), nrep=6, rho=0.5,
                                   delta=0.1, seed=seed, beta=0.5)
            model, methods = "pair", ("equality",)
            block = [out.series for out in generate_bivariate_batch(0.1, 0.5, 128, seeds)]
        else:
            cfg = tiny_config(models=("x7",), nrep=6, seed=seed, methods=("box_pierce",))
            model, methods = "x7", ("box_pierce",)
            block = generate_batch(MODEL_REGISTRY["x7"], 64, seeds).series
        want = [experiments.METHODS[methods[0]].values(cfg, block)]
        assert experiments._block_values((cfg, 4, (model, cfg.T[0]), methods, reps)) == want
        np.testing.assert_array_equal(
            generate_batch(MODEL_REGISTRY["x7"], 64, experiments._entropy_rows(seed, 4, reps)
                           ).series,
            generate_batch(MODEL_REGISTRY["x7"], 64, seeds).series)

    def test_group_time_is_split_over_its_cells(self):
        calls = []

        def progress(msg):
            calls.append(msg)
            if len(calls) == 2:  # the second cell's own progress call
                time.sleep(0.25)

        cfg = tiny_config(nrep=20, methods=("orthogonal", "box_pierce", "robust"))
        table = run_experiment(cfg, progress=progress)
        assert len(calls) == 3 + 1
        time_ms = {r.method: r.time_ms for r in table.rows}
        ortho, bp, robust = time_ms["orthogonal"], time_ms["box_pierce"], time_ms["robust"]
        # an even share of the group's wall clock each, plus the cell's progress call
        assert bp - ortho >= 250.0 and abs(robust - ortho) < 50.0
        # the shares add up to the group's wall clock; the run's total adds
        # only the building of the rows
        assert 0.0 <= table.metadata["total_ms"] - (ortho + bp + robust) < 50.0

    def test_failing_cell_yields_nan_rows(self):
        # L exceeds T/2 at T = 8 only: that cell errors out but the run completes
        cfg = tiny_config(T=(8, 64), L=5, M=3)
        table = run_experiment(cfg, progress=quiet)
        assert len(table.rows) == 4
        assert all(np.isnan(r.rate) for r in table.rows[:2])
        assert not any(np.isnan(r.rate) for r in table.rows[2:])

    def test_failing_qq_cell_yields_one_nan_row(self):
        # M = 5 reaches T/2 at T = 8: that cell fails, the T = 64 cell runs
        cfg = ExperimentConfig(experiment="qq_t10", models=("pivot_i",),
                               T=(8, 64), nrep=5, M=5, seed=1)
        failed, ok = run_experiment(cfg, progress=quiet).rows
        assert (failed.model, failed.T, failed.method) == ("pivot_i", 8, "qq_t10")
        assert np.isnan([failed.alpha, failed.rate, failed.se]).all()
        assert ok.T == 64 and ok.alpha == 0.05 and np.isfinite(ok.rate)
        assert list(run_experiment(cfg, progress=quiet).quantile_pairs) == ["pivot_i_T64"]

    def test_zero_variance_qq_row_fails_loudly(self, monkeypatch):
        # an all-zero series has no variance estimate: the block raises, and
        # the cell gives its NaN row with the cause, not a NaN statistic
        cfg = ExperimentConfig(experiment="qq_t10", models=("pivot_i",), T=(64,), nrep=2,
                               M=5, seed=1)
        block = np.stack([np.zeros(64), np.random.default_rng(0).standard_normal(64)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError):
                experiments.METHODS["qq_t10"].values(cfg, block)
            monkeypatch.setattr(experiments, "generate_batch",
                                lambda *args: SimpleNamespace(series=block))
            entry, = experiments._block_values((cfg, 0, ("pivot_i", 64), ("qq_t10",),
                                                range(2)))
            assert isinstance(entry, DegenerateDataError)
            messages = []
            row, = run_experiment(cfg, progress=messages.append).rows
        assert np.isnan([row.alpha, row.rate, row.se]).all()
        assert "variance estimate is zero" in messages[0]

    def test_qq_config_runs_without_warnings(self):
        # a numpy warning in the qq statistics (a NaN from a zero variance)
        # fails the run instead of being sorted into the pairs
        root = Path(__file__).resolve().parents[1]
        cfg = replace(parse_config((root / "configs" / "qq_t10.cfg").read_text()), nrep=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_experiment(cfg, progress=quiet)
        assert len(table.rows) == 6 and all(np.isfinite(r.rate) for r in table.rows)
        assert all(np.isfinite(emp).all() for emp, _ in table.quantile_pairs.values())

    def test_gof_block_matches_single_tests(self):
        # the rows' rates come from goodness_of_fit_test against the
        # config's AR(gof_phi, gof_sigma) density, one series at a time
        cfg = ExperimentConfig(experiment="table_gof_null", models=("ar_g_0.6",), T=(100,),
                               nrep=7, gof_phi=0.6, gof_sigma=1.3, L=4, seed=5,
                               alphas=(0.2, 0.5))
        series = generate_batch(MODEL_REGISTRY["ar_g_0.6"], 100,
                                [[5, 0, r] for r in range(7)]).series
        want = [goodness_of_fit_test(x, lambda om: ar_spectral_density(om, [0.6], 1.3),
                                     L=4, search_set=cfg.search_set, p=cfg.p).p_value
                for x in series]
        block = np.ascontiguousarray(series)
        assert experiments.METHODS["orthogonal"].values(cfg, block) == want
        rows = run_experiment(cfg, progress=quiet).rows
        assert [r.rate for r in rows] == [100.0 * np.count_nonzero(np.array(want) < a) / 7
                                          for a in (0.2, 0.5)]

    def test_other_zero_division_propagates(self, monkeypatch):
        # only bad input gives NaN rows; any other division by zero is a
        # fault and leaves the run
        def faulty(cfg, series):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setitem(experiments.METHODS, "box_pierce",
                            experiments.Method(faulty))
        with pytest.raises(ZeroDivisionError, match="float division"):
            run_experiment(tiny_config(methods=("box_pierce",)), progress=quiet)

    def test_degenerate_data_yields_nan_rows(self, monkeypatch):
        def degenerate(cfg, series):
            raise DegenerateDataError("zero sample variance; Box-Pierce undefined")

        monkeypatch.setitem(experiments.METHODS, "box_pierce",
                            experiments.Method(degenerate))
        table = run_experiment(tiny_config(methods=("box_pierce",)), progress=quiet)
        assert len(table.rows) == 2
        assert all(np.isnan(r.rate) for r in table.rows)

    def test_qq_table(self):
        cfg = ExperimentConfig(experiment="qq_t10", models=("pivot_i",),
                               T=(64,), nrep=25, M=5, seed=1)
        table = run_experiment(cfg, progress=quiet)
        (label, (emp, ref)), = table.quantile_pairs.items()
        assert label == "pivot_i_T64"
        assert emp.shape == (25,)
        assert np.all(np.diff(emp) >= 0)
        assert np.all(np.diff(ref) > 0)

    def test_equality_table(self):
        cfg = ExperimentConfig(experiment="table_equality", T=(128,), nrep=5,
                               rho=0.0, delta=0.0, seed=2, beta=1.0)
        table = run_experiment(cfg, progress=quiet)
        assert table.rows[0].method == "equality"
        assert 0.0 < table.metadata["beta_hat_mean"]["T128"] <= 1.0

    def test_custom_test_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="custom_test")


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        table = run_experiment(tiny_config(), progress=quiet)
        paths = emit(table, str(tmp_path / "out"))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(table.rows)
        for line, row in zip(lines[1:], table.rows):
            model, T, method, alpha, rate, se, _ = line.split(",")
            assert model == row.model
            assert int(T) == row.T
            assert float(rate) == pytest.approx(row.rate, abs=1e-3)
        assert paths == [str(tmp_path / "out.csv")]

    def test_json_and_qq_outputs(self, tmp_path):
        cfg = ExperimentConfig(experiment="qq_t10", models=("pivot_i",),
                               T=(64,), nrep=10, M=5, seed=1)
        table = run_experiment(cfg, progress=quiet)
        paths = emit(table, str(tmp_path / "pairs"), json_too=True)
        assert str(tmp_path / "pairs.json") in paths
        qq_files = [p for p in paths if "_qq_" in p.rsplit("/", 1)[-1]]
        assert len(qq_files) == 1
        lines = open(qq_files[0]).read().splitlines()
        assert lines[0] == "empirical,reference"
        assert len(lines) == 11  # header + nrep rows
        emp = [float(l.split(",")[0]) for l in lines[1:]]
        assert emp == sorted(emp)

    def test_empty_table_rejected(self, tmp_path):
        from orthosample.experiments import ResultTable

        with pytest.raises(ValueError):
            emit(ResultTable(), str(tmp_path / "x"))


def test_benchmark_counts_the_cells_of_each_config(monkeypatch):
    # the mc_tables workload counts a config's replications as cells times
    # nrep, laying the cells out as run_experiment does
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert len(workloads.CONFIG_STEMS) == 10
    for stem in workloads.CONFIG_STEMS:
        cfg = replace(parse_config((root / "configs" / f"{stem}.cfg").read_text()), nrep=1)
        cells = {(r.model, r.T, r.method) for r in run_experiment(cfg, progress=quiet).rows}
        assert workloads.McTables.ops((stem, cfg)) == len(cells), stem


# The ten checked-in configs, at a small nrep: every row that is not
# Box-Pierce or robust, the qq pairs and beta_hat_mean hash to the pin.
PINNED_STEMS = ("equality_null", "equality_power", "gof_null_ar06_chi", "gof_null_ar06_gauss",
                "gof_null_ar09_chi", "gof_power_phi03", "qq_t10", "uncorrelated_null_T100",
                "uncorrelated_null_T500", "uncorrelated_power")
PINNED_NREP = 10
PINNED_DIGEST = "f4c31c05f9ca40ba"


def test_pinned_rows_keep_their_bits():
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for stem in PINNED_STEMS:
        cfg = parse_config((root / "configs" / f"{stem}.cfg").read_text())
        table = run_experiment(replace(cfg, nrep=PINNED_NREP), progress=quiet)
        h.update(stem.encode())
        for r in table.rows:
            if r.method not in ("box_pierce", "robust"):
                h.update(repr((r.model, r.T, r.method, r.alpha, r.rate, r.se)).encode())
        for label, (emp, ref) in table.quantile_pairs.items():
            h.update(label.encode() + emp.tobytes() + ref.tobytes())
        h.update(repr(table.metadata.get("beta_hat_mean")).encode())
    assert h.hexdigest()[:16] == PINNED_DIGEST
