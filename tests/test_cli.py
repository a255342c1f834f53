"""Command line interface: verbs, data loading, exit codes."""

import json

import numpy as np
import pytest

from orthosample.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    DataError,
    load_series,
    main,
)
from orthosample.models import MODEL_REGISTRY, generate, generate_bivariate


@pytest.fixture
def series_csv(tmp_path):
    x = generate(MODEL_REGISTRY["normal"], 100, seed=1).series
    path = tmp_path / "x.csv"
    path.write_text("\n".join(f"{v:.10g}" for v in x) + "\n")
    return str(path)


@pytest.fixture
def bivariate_csv(tmp_path):
    xo, yo = generate_bivariate(0.0, 0.0, 128, seed=2)
    path = tmp_path / "xy.csv"
    rows = [f"{a:.10g},{b:.10g}" for a, b in zip(xo.series, yo.series)]
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLoadSeries:
    def test_single_column_with_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("value\n1.0\n2.5\n-3\n")
        (col,) = load_series(str(path))
        np.testing.assert_allclose(col, [1.0, 2.5, -3.0])

    def test_two_columns_no_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2\n3,4\n")
        x, y = load_series(str(path), columns=2)
        np.testing.assert_allclose(x, [1, 3])
        np.testing.assert_allclose(y, [2, 4])

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0\n2.0\noops\n")
        with pytest.raises(DataError, match="line 3"):
            load_series(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="line 2"):
            load_series(str(path))

    def test_missing_file_and_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            load_series(str(tmp_path / "nope.csv"))
        empty = tmp_path / "e.csv"
        empty.write_text("header\n")
        with pytest.raises(DataError):
            load_series(str(empty))

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1\n2\n")
        with pytest.raises(DataError):
            load_series(str(path), columns=2)


class TestTestVerb:
    def test_portmanteau_fixed_M(self, series_csv, capsys):
        assert main(["test", "portmanteau", series_csv, "--M", "10"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "orthogonal_portmanteau"
        # empirical p-values land on the 1/(2M) grid
        assert round(out["p_value"] * 20) == pytest.approx(out["p_value"] * 20)
        assert out["tuning"]["M"] == 10

    def test_box_pierce_and_robust(self, series_csv, capsys):
        for kind in ("box_pierce", "robust"):
            assert main(["test", kind, series_csv]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            assert 0.0 <= out["p_value"] <= 1.0

    def test_gof_ar1_reports_fit(self, series_csv, capsys):
        assert main(["test", "gof_ar1", series_csv, "--M", "10"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["fitted_theta"]) == 2
        assert abs(out["fitted_theta"][0]) < 0.95
        assert out["on_boundary"] is False

    def test_equality_needs_two_columns(self, bivariate_csv, series_csv, capsys):
        assert main(["test", "equality", bivariate_csv]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert "transformed_statistic" in out
        assert "beta" in out["tuning"]
        assert main(["test", "equality", series_csv]) == EXIT_DATA

    def test_malformed_data_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot_a_number_on_line_2\n")
        assert main(["test", "portmanteau", str(bad)]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self, series_csv):
        assert main(["test", "nonsense", series_csv]) == EXIT_CONFIG

    def test_seed_flag_is_not_accepted(self, series_csv):
        assert main(["test", "portmanteau", series_csv, "--seed", "1"]) == EXIT_CONFIG


class TestSelectMVerb:
    def test_reports_curve(self, series_csv, capsys):
        assert main(["selectM", series_csv, "--set", "10..15"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert 10 <= out["chosen_M"] <= 15
        assert set(out["criterion_curve"]) == {str(m) for m in range(10, 16)}

    def test_explicit_list(self, series_csv, capsys):
        assert main(["selectM", series_csv, "--set", "8,12"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["chosen_M"] in (8, 12)

    def test_short_series_is_data_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("\n".join(str(v) for v in range(20)))
        assert main(["selectM", str(path)]) == EXIT_DATA


class TestRunVerb:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 4\nM = 8\nseed = 5\n"
        )
        out_prefix = str(tmp_path / "res")
        assert main(["run", str(cfg), "--out", out_prefix, "--json"]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert f"{out_prefix}.csv" in printed
        assert f"{out_prefix}.json" in printed
        header = open(f"{out_prefix}.csv").readline().strip()
        assert header == "model,T,method,alpha,rate,se,time_ms"

    def test_nrep_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 50\nM = 8\nseed = 5\n"
        )
        out_prefix = str(tmp_path / "res2")
        assert main(["run", str(cfg), "--out", out_prefix, "--nrep", "3"]) == EXIT_OK
        lines = open(f"{out_prefix}.csv").read().splitlines()
        # rates with nrep = 3 are multiples of 100/3
        rate = float(lines[1].split(",")[4])
        assert min(abs(rate - v) for v in (0.0, 100 / 3, 200 / 3, 100.0)) < 1e-3

    def test_workers_env_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 4\nM = 8\nseed = 5\n"
        )
        monkeypatch.setenv("ORTHOSAMPLE_WORKERS", "2")
        assert main(["run", str(cfg), "--out", str(tmp_path / "res3")]) == EXIT_OK

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = table_uncorrelated_null\nfrobnicate = 1\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG

    def test_checked_in_configs_parse(self):
        import glob
        import os

        from orthosample.experiments import parse_config

        cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(cfg_dir, "*.cfg")))
        assert len(paths) >= 10
        for path in paths:
            parse_config(open(path).read())
