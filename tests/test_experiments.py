"""Config parsing and the Monte Carlo experiment runner."""

import json

import numpy as np
import pytest

from orthosample.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    emit,
    parse_config,
    run_experiment,
)

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

    def test_method_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(methods=("sorcery",))


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

    def test_worker_invariance(self):
        t1 = run_experiment(tiny_config(workers=1), progress=quiet)
        t2 = run_experiment(tiny_config(workers=2), progress=quiet)
        strip = lambda t: [r.csv().rsplit(",", 1)[0] for r in t.rows]
        assert strip(t1) == strip(t2)

    def test_se_definition(self):
        table = run_experiment(tiny_config(nrep=20), progress=quiet)
        for row in table.rows:
            p = row.rate / 100
            assert row.se == pytest.approx(100 * np.sqrt(p * (1 - p) / 20), abs=1e-9)

    def test_failing_cell_yields_nan_rows(self):
        # L exceeds T/2: the cell errors out but the run completes
        cfg = tiny_config(T=(8,), L=5, M=3)
        table = run_experiment(cfg, progress=quiet)
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
        assert "T128" in table.metadata["beta_hat_mean"] or table.metadata

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
