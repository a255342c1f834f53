"""Command line interface: verbs, data loading, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosample import cli, experiments, htests, spectral, whittle
from orthosample.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    DataError,
    load_series,
    main,
    report_to_dict,
)
from orthosample.equality import equality_test
from orthosample.experiments import parse_search_set
from orthosample.htests import goodness_of_fit_test
from orthosample.selection import DEFAULT_P, DEFAULT_SEARCH_SET, _feasible, select_M
from orthosample.variance import studentize, variance_estimate
from orthosample.whittle import ar_model, whittle_fit
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


def _load_series_reference(path, columns=None):
    """The line-by-line reader that ``load_series`` replaced, kept as an
    oracle: each line stripped, split and parsed on its own."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = []
    first_nonempty = True
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            values = [float(p) for p in parts]
        except ValueError:
            if first_nonempty:
                first_nonempty = False
                continue  # header row
            raise DataError(f"{path}: line {ln}: cannot parse {line!r}") from None
        first_nonempty = False
        if not cols:
            cols = [[] for _ in parts]
        if len(parts) != len(cols):
            raise DataError(f"{path}: line {ln}: expected {len(cols)} columns, "
                            f"got {len(parts)}")
        for c, v in zip(cols, values):
            c.append(v)
    if not cols:
        raise DataError(f"{path}: no data rows")
    if columns is not None and len(cols) != columns:
        raise DataError(f"{path}: expected {columns} column(s), found {len(cols)}")
    return [np.asarray(c) for c in cols]


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _bits(arrays):
    return [(a.dtype, a.shape, a.view(np.int64).tolist()) for a in arrays]


READER_FILES = {
    "one_column": "1.5\n-2\n3e-3\n",
    "one_column_header": "value\n1.5\n-2\n",
    "two_columns": "1,2\n3.25,-4\n5,6\n",
    "two_columns_header": "x,y\n1,2\n3,4\n",
    "blank_lines": "\n\n1\n\n2\n\n\n3",
    "whitespace_lines": "  \n\t\n1,2\n   \n3,4\n \t \n",
    "header_after_blank": "\n  \nx,y\n\n1,2\n",
    "crlf": "x\r\n1.5\r\n2.5\r\n\r\n",
    "padded_fields": "  1 ,\t2\n3  ,  4 \n",
    "exponents": "1e300,-2.5E-300\n4.9e-324,1.7976931348623157e308\n",
    "nan_inf_tokens": "nan,inf\n-inf,NaN\nInfinity,-nan\n",
    "underscores": "1_000\n2_500.5\n",
    "many_digits": "0.1000000000000000055511151231257827\n3.141592653589793238\n",
}


class TestOnePassReader:
    @pytest.mark.parametrize("name", sorted(READER_FILES))
    def test_bit_identical_to_line_by_line(self, tmp_path, name):
        path = _write(tmp_path, READER_FILES[name])
        assert _bits(load_series(path)) == _bits(_load_series_reference(path))

    def test_bit_identical_on_random_values(self, tmp_path, rng):
        x = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-300, 300, (500, 2))
        path = _write(tmp_path, "a,b\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in x))
        new, ref = load_series(path, columns=2), _load_series_reference(path, columns=2)
        assert _bits(new) == _bits(ref)
        assert all(c.flags.c_contiguous for c in new)
        np.testing.assert_array_equal(np.stack(new, axis=1), x)

    @pytest.mark.parametrize("text, columns", [
        ("1,2\nbad,3\n4\n", None),   # bad value before a ragged row
        ("1,2\n4\nbad,3\n", None),   # ragged row before a bad value
        ("1,2\n3,4,5\n", None),       # too many columns
        ("1\n2,x\n", None),           # ragged and bad on one line
        ("x,y\n", None),               # header only
        ("", None),                    # empty file
        ("\n  \n", None),             # blank lines only
        ("x\n1\noops\n", None),       # bad second data line after a header
        ("x\nbad\n1\n", None),        # bad line right after the header
        ("1,2\n3,\n", None),          # empty field in a data row
        ("1\n2\n", 2),                # column count enforced
        ("1,2\n3,4\n", 1),
    ])
    def test_same_error_text(self, tmp_path, text, columns):
        path = _write(tmp_path, text)
        with pytest.raises(DataError) as ref:
            _load_series_reference(path, columns)
        with pytest.raises(DataError) as new:
            load_series(path, columns)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("text", ["\ufeff1\n2\n3\n", "\ufeffx\n1\n2\n3\n"])
    def test_byte_order_mark(self, tmp_path, text):
        (col,) = load_series(_write(tmp_path, text))
        np.testing.assert_array_equal(col, [1.0, 2.0, 3.0])


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

    def test_bad_beta_is_usage_error(self, bivariate_csv, capsys):
        assert main(["test", "equality", bivariate_csv, "--beta", "abc"]) == EXIT_CONFIG
        assert "--beta" in capsys.readouterr().err
        assert main(["test", "equality", bivariate_csv, "--beta", "2"]) == EXIT_DATA
        assert "data error: beta=2.0 outside (0, 1]" in capsys.readouterr().err
        assert main(["test", "equality", bivariate_csv, "--beta", "0.5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tuning"]["beta"] == 0.5

    @pytest.mark.parametrize("kind, columns, message", [
        ("equality", 2, "zero variance in null draws; beta undefined"),
        ("box_pierce", 1, "zero sample variance; Box-Pierce undefined"),
        ("robust", 1, "zero normaliser tau at lag 1"),
    ])
    def test_degenerate_data_is_data_error(self, tmp_path, capsys, kind, columns, message):
        # equal columns, or a constant series: the library raises DegenerateDataError
        col = np.arange(64.0) % 7 if columns == 2 else np.ones(64)
        path = tmp_path / "degenerate.csv"
        path.write_text("\n".join(",".join([f"{v:g}"] * columns) for v in col) + "\n")
        assert main(["test", kind, str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == f"data error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("beta", ["0.5", "1"])
    def test_degenerate_pair_with_fixed_beta_is_data_error(self, tmp_path, capsys, beta):
        # equal columns with a fixed exponent: exit 3, not a traceback
        path = tmp_path / "equal.csv"
        path.write_text("".join(f"{v:g},{v:g}\n" for v in np.arange(64.0) % 7))
        assert main(["test", "equality", str(path), "--beta", beta]) == EXIT_DATA == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: zero variance in null draws; test undefined\n"
        assert captured.out == ""

    def test_other_zero_division_is_not_a_data_error(self, series_csv, monkeypatch):
        # only the degenerate-data class is bad input; any other division by
        # zero is a fault and keeps its traceback
        def faulty(x, L):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "box_pierce", faulty)
        with pytest.raises(ZeroDivisionError, match="float division"):
            main(["test", "box_pierce", series_csv])

    def test_unknown_kind_is_usage_error(self, series_csv):
        assert main(["test", "nonsense", series_csv]) == EXIT_CONFIG

    def test_seed_flag_is_not_accepted(self, series_csv):
        assert main(["test", "portmanteau", series_csv, "--seed", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["test", "equality", "xy.csv", "--bet", "0.5"],
                                      ["test", "equality", "xy.csv", "--M=8", "--be", "0.5"],
                                      ["selectM", "x.csv", "--se", "5,10"],
                                      ["run", "exp.cfg", "--nre", "3"]],
                             ids=["bet", "be", "se", "nre"])
    def test_option_prefix_is_usage_error(self, data_dir, argv):
        # an option is spelled in full: a prefix is not taken for the option
        argv = [str(data_dir / a) if a.endswith((".csv", ".cfg")) else a for a in argv]
        code, out, err = _main_quietly(argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


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

    @pytest.mark.parametrize("spec", ["abc", "5..", "30..10", "0,3", "10..x"])
    def test_bad_set_is_config_error(self, series_csv, capsys, spec):
        assert main(["selectM", series_csv, "--set", spec]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "--set" in err

    def test_p_below_two_is_data_error(self, series_csv, capsys):
        assert main(["selectM", series_csv, "--p", "0"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "p must be >= 2" in err and "Traceback" not in err

    def test_short_series_is_data_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("\n".join(str(v) for v in range(20)))
        assert main(["selectM", str(path)]) == EXIT_DATA


class TestSelectMOutputAndErrors:
    """``orthosample selectM`` prints ``select_M``'s choice and curve over the
    feasible members of the set, and every error keeps its text, exit code
    and precedence (a bad set before a bad p)."""

    @pytest.mark.parametrize("extra", [[], ["--set", "10..15"], ["--set", "8,12,8"],
                                       ["--p", "3", "--set", "20,5"], ["--p", "30"]])
    def test_same_json(self, series_csv, capsys, extra):
        assert main(["selectM", series_csv] + extra) == EXIT_OK
        opts = dict(zip(extra[::2], extra[1::2]))
        p = int(opts.get("--p", DEFAULT_P))
        members = parse_search_set(opts.get("--set", tuple(DEFAULT_SEARCH_SET)), "--set")
        (x,) = load_series(series_csv)
        grid = spectral.dft(x)
        sel = select_M(grid, spectral.lag_weight(1), _feasible(grid.T, members, p)[0], p)
        want = {"chosen_M": sel.chosen_M, "p": sel.p,
                "criterion_curve": {str(m): v for m, v in sorted(sel.criterion_curve.items())}}
        assert capsys.readouterr().out == json.dumps(want, indent=1) + "\n"

    @pytest.mark.parametrize("extra, code, err", [
        (["--p", "0"], EXIT_DATA, "data error: p must be >= 2"),
        (["--set", "0,3"], EXIT_CONFIG, "config error: bad value for '--set': '0,3'; "
                                        "search set [0, 3] must be non-empty with every M >= 1"),
        (["--set", "5..3"], EXIT_CONFIG, "config error: bad value for '--set': '5..3'; "
                                         "search set [] must be non-empty with every M >= 1"),
        (["--p", "0", "--set", "0,3"], EXIT_CONFIG,
         "config error: bad value for '--set': '0,3'; "
         "search set [0, 3] must be non-empty with every M >= 1"),
        (["--set", "40..45"], EXIT_DATA,
         "data error: no feasible M in [40, 41, 42, 43, 44, 45] for T=100, p=4"),
    ])
    def test_errors_keep_their_text(self, series_csv, capsys, extra, code, err):
        assert main(["selectM", series_csv] + extra) == code
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", err + "\n")


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
        header = Path(f"{out_prefix}.csv").read_text().splitlines()[0].strip()
        assert header == "model,T,method,alpha,rate,se,time_ms"

    def test_nrep_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 50\nM = 8\nseed = 5\n"
        )
        out_prefix = str(tmp_path / "res2")
        assert main(["run", str(cfg), "--out", out_prefix, "--nrep", "3"]) == EXIT_OK
        lines = Path(f"{out_prefix}.csv").read_text().splitlines()
        # rates with nrep = 3 are multiples of 100/3
        rate = float(lines[1].split(",")[4])
        assert min(abs(rate - v) for v in (0.0, 100 / 3, 200 / 3, 100.0)) < 1e-3

    @pytest.mark.parametrize("value", ["2", "2.0"])  # the config's rule: 2.0 is 2
    def test_workers_env_override(self, tmp_path, monkeypatch, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 4\nM = 8\nseed = 5\n"
        )
        monkeypatch.setenv("ORTHOSAMPLE_WORKERS", value)
        assert main(["run", str(cfg), "--out", str(tmp_path / "res3")]) == EXIT_OK

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3", "true"])
    def test_bad_workers_env_is_config_error(self, tmp_path, monkeypatch, capsys,
                                             value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = table_uncorrelated_null\n"
            "models = normal\nT = 64\nnrep = 4\nM = 8\nseed = 5\n"
        )
        monkeypatch.setenv("ORTHOSAMPLE_WORKERS", value)
        out = tmp_path / "res4"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "ORTHOSAMPLE_WORKERS" in err and "workers" in err
        assert not (tmp_path / "res4.csv").exists()

    def test_missing_out_directory_is_config_error(self, tmp_path, capsys, monkeypatch):
        import orthosample.cli as cli

        def never(cfg):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", never)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = table_uncorrelated_null\nT = 64\nnrep = 4\nM = 8\n")
        out = tmp_path / "missing" / "x"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(out.parent) in err
        assert "Traceback" not in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = table_uncorrelated_null\nfrobnicate = 1\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["nrep = ten", "search_set = 10..x",
                                      "search_set = 30..10", "search_set = 0,3",
                                      "models = ", "methods = ", "methods = bootstrap",
                                      "B = 20", "n_boot = 500",
                                      "beta = 2", "b = 1.5", "p = 1",
                                      "L = 0", "L = -2", "M = 0", "gof_sigma = 0",
                                      "gof_sigma = nan", "gof_sigma = -1",
                                      "gof_phi = 1.5", "beta = true", "rho = nan",
                                      "L = 5\nT = 3", "M = 60\nT = 100"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, line):
        # tuning that fails at every T fails the config, before any cell runs
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = table_uncorrelated_null\n{line}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "res5")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and line.split(" = ")[0] in err
        assert "cell" not in err and not (tmp_path / "res5.csv").exists()

    def test_checked_in_configs_parse(self):
        import glob
        import os

        from orthosample.experiments import parse_config

        cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(cfg_dir, "*.cfg")))
        assert len(paths) >= 10
        for path in paths:
            parse_config(Path(path).read_text())


def _main_output(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A series, a pair of series and a run config, written once for the module."""
    path = tmp_path_factory.mktemp("options")
    x = generate(MODEL_REGISTRY["normal"], 100, seed=1).series
    (path / "x.csv").write_text("\n".join(f"{v:.10g}" for v in x) + "\n")
    xo, yo = generate_bivariate(0.0, 0.0, 128, seed=2)
    (path / "xy.csv").write_text("\n".join(f"{a:.10g},{b:.10g}"
                                           for a, b in zip(xo.series, yo.series)) + "\n")
    (path / "exp.cfg").write_text("experiment = table_uncorrelated_null\n"
                                  "models = normal\nT = 64\nnrep = 4\nM = 8\nseed = 5\n")
    return path


def _main_quietly(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Each number option with the arguments before it and a valid value: the
# option takes the spellings of its config key and obeys its rule.
OPTIONS = [(["run", "exp.cfg"], "nrep", 3), (["test", "portmanteau", "x.csv"], "M", 8),
           (["test", "portmanteau", "x.csv"], "L", 3), (["test", "equality", "xy.csv"], "b", 0.25),
           (["test", "equality", "xy.csv"], "beta", 1), (["selectM", "x.csv"], "p", 4)]


@pytest.mark.parametrize("kind", ["boolean", "non-finite", "number"])
@pytest.mark.parametrize("head, option, valid", OPTIONS, ids=[o for _, o, _ in OPTIONS])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_one_rule_per_number_option(data_dir, head, option, valid, kind, data):
    # a boolean word or a non-finite value is a configuration error naming the
    # option; any spelling of a valid number gives that number's output
    words = {"boolean": ["true", "True", "false"],
             "non-finite": ["nan", "inf", "-inf", "NaN", "Infinity"],
             "number": [str(valid), repr(float(valid)), f"{float(valid):e}", f"+{valid}"]}
    value = data.draw(st.sampled_from(words[kind]), label=option)

    def run(v, out):
        argv = [str(data_dir / a) if "." in a else a for a in head] + [f"--{option}={v}"]
        if head[0] == "run":
            argv += ["--out", str(data_dir / out)]
        code, stdout, err = _main_quietly(argv)
        if head[0] == "run" and code == EXIT_OK:  # the rows, less their time_ms
            stdout = [line.rsplit(",", 1)[0] for line in
                      (data_dir / f"{out}.csv").read_text().splitlines()]
        return code, stdout, err

    if kind == "number":
        assert run(value, "got") == run(valid, "want")
        assert run(valid, "want")[0] == EXIT_OK
    else:
        code, stdout, err = run(value, "got")
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err.startswith("config error") and f"--{option}" in err


# The options each test kind takes; any other is a usage error.
KIND_OPTIONS = {"portmanteau": ("M", "L"), "box_pierce": ("L",), "robust": ("L",),
                "gof_ar1": ("M", "L"), "equality": ("M", "b", "beta")}
OPTION_VALUES = {"M": 8, "L": 3, "b": 0.25, "beta": 0.5}


def _library_json(kind, data, key, value) -> str:
    """The report the library gives ``kind`` on ``data`` with option ``key``
    at ``value`` and the others at their defaults, as `test` prints it."""
    o = {"M": None, "L": 5, "b": None, "beta": "estimate", key: value}
    if kind == "equality":
        report = equality_test(*data, b=o["b"], M=o["M"], beta=o["beta"])
        out = report_to_dict(report) | {"transformed_statistic": report.tuning["z"]}
    elif kind == "gof_ar1":
        model = ar_model(1)
        fit = whittle_fit(spectral.dft(data[0]), model)
        report = goodness_of_fit_test(data[0], lambda om: model.density(om, fit.theta_hat),
                                      L=o["L"], M=o["M"])
        out = report_to_dict(report) | {"fitted_theta": [float(v) for v in fit.theta_hat],
                                        "on_boundary": fit.on_boundary}
    else:
        test = {"portmanteau": lambda x: htests.portmanteau_test(x, L=o["L"], M=o["M"]),
                "box_pierce": lambda x: htests.box_pierce(x, L=o["L"]),
                "robust": lambda x: htests.robust_portmanteau(x, L=o["L"])}[kind]
        out = report_to_dict(test(data[0]))
    return json.dumps(out, indent=1) + "\n"


@pytest.mark.parametrize("key", list(OPTION_VALUES))
@pytest.mark.parametrize("kind", list(KIND_OPTIONS))
def test_each_kind_takes_only_its_options(data_dir, kind, key):
    # 9 of the 20 (kind, option) pairs are taken and print the library's
    # report; the other 11 are usage errors naming the option, as is an
    # option placed before the kind, and a kind's help lists its options only
    path = str(data_dir / ("xy.csv" if kind == "equality" else "x.csv"))
    value = OPTION_VALUES[key]
    code, out, err = _main_quietly(["test", kind, path, f"--{key}", str(value)])
    if key in KIND_OPTIONS[kind]:
        data = load_series(path, columns=2 if kind == "equality" else 1)
        assert (code, out, err) == (EXIT_OK, _library_json(kind, data, key, value), "")
    else:
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"unrecognized arguments: --{key} {value}" in err
    assert _main_quietly(["test", f"--{key}={value}", kind, path])[:2] == (EXIT_CONFIG, "")
    code, out, _ = _main_quietly(["test", kind, "--help"])
    assert code == EXIT_OK
    assert set(re.findall(r"--(\w+)", out)) - {"help"} == set(KIND_OPTIONS[kind])


@pytest.mark.parametrize("key", list(OPTION_VALUES))
def test_option_before_the_kind_is_named(data_dir, key):
    path = str(data_dir / "x.csv")
    for before in ([f"--{key}", "8"], [f"--{key}=8"]):
        code, out, err = _main_quietly(["test", *before, "portmanteau", path])
        assert (code, out) == (EXIT_CONFIG, "")
        assert (f"error: --{key} goes after the kind: "
                f"orthosample test <kind> <datafile> --{key} 8") in err


@pytest.mark.parametrize("argv, scale, cause", [
    (["test", "box_pierce"], 1e80, "box_pierce: row 0 has a non-finite statistic or p-value"),
    (["test", "robust"], 1e80, "robust_portmanteau: row 0 has a non-finite statistic or p-value"),
    (["test", "equality"], 1e30, "spectral_equality: row 0 has a non-finite statistic or p-value"),
    (["test", "equality"], 1e40, "spectral_equality: row 0 has a non-finite statistic or p-value"),
    (["test", "portmanteau"], 1e150, "criterion curve is not finite"),
    (["selectM"], 1e150, "criterion curve is not finite"),
], ids=["box_pierce", "robust", "equality_pow", "equality_nan", "portmanteau", "selectM"])
def test_overflowing_data_is_a_data_error(tmp_path, argv, scale, cause):
    # finite data whose test overflows: exit 3 naming the cause, never a NaN
    # report or a traceback
    columns = 2 if "equality" in argv else 1
    data = scale * np.random.default_rng(7).standard_normal((128, columns))
    path = tmp_path / "big.csv"
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in data) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code, out, err = _main_quietly([*argv, str(path)])
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"data error: {cause}: the data's scale overflows a float\n"


@pytest.mark.parametrize("before", [["--bogus", "1"], ["--bogus=1"], ["-q"]])
def test_unknown_option_before_the_kind_is_named(data_dir, before):
    code, out, err = _main_quietly(["test", *before, "portmanteau", str(data_dir / "x.csv")])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.endswith(f"orthosample test: error: unrecognized arguments: {before[0]}\n")


def test_fixed_M_overflow_is_a_data_error_naming_the_test(tmp_path):
    x = 1e150 * np.random.default_rng(7).standard_normal(128)
    path = tmp_path / "big.csv"
    path.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        code, out, err = _main_quietly(["test", "portmanteau", str(path), "--M", "10"])
    assert (code, out) == (EXIT_DATA, "")
    assert err == ("data error: orthogonal_portmanteau: row 0 has non-finite null draws: "
                   "the data's scale overflows a float\n")


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_gof_ar1_fits_data_at_extreme_scales(tmp_path, scale):
    # the fit takes its steps and the test is scale-free: the fitted phi is
    # the unit-scale one, with no warning
    x = generate(MODEL_REGISTRY["ar_g_0.6"], 512, seed=9).series
    paths = [tmp_path / "unit.csv", tmp_path / "scaled.csv"]
    for path, values in zip(paths, (x, scale * x)):
        path.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (code, out, err), (scaled_code, scaled_out, _) = (
            _main_quietly(["test", "gof_ar1", str(path), "--M", "10"]) for path in paths)
    assert (code, scaled_code, err) == (EXIT_OK, EXIT_OK, "")
    unit, scaled = json.loads(out), json.loads(scaled_out)
    assert scaled["fitted_theta"][0] == pytest.approx(unit["fitted_theta"][0], rel=1e-12)
    assert scaled["fitted_theta"][1] == pytest.approx(scale * unit["fitted_theta"][1], rel=1e-12)


@pytest.mark.parametrize("scale", [1e154, 1e156, 1e-160, 1e-170])
def test_gof_ar1_refuses_data_past_the_float_range(tmp_path, scale):
    # past the fit's range the periodogram leaves the floats: exit 3 with one
    # line naming the scale, and no warning
    cause = ("overflows a float: the data's scale is too large" if scale > 1
             else "underflows a float: the data's scale is too small")
    x = generate(MODEL_REGISTRY["ar_g_0.6"], 512, seed=9).series
    path = tmp_path / "scaled.csv"
    path.write_text("\n".join(f"{v:.17g}" for v in scale * x) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _main_quietly(["test", "gof_ar1", str(path)])
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"data error: periodogram {cause} for a Whittle fit\n"


class TestCachedParser:
    def test_reused_parser_matches_fresh_parse(self, series_csv, capsys, monkeypatch):
        f = series_csv
        calls = [["test", "portmanteau", f, "--M", "8"], ["test", "portmanteau", f],
                 ["selectM", f, "--set", "5,10"], ["selectM", f],
                 ["test", "portmanteau", f, "--beta", "x"], ["test", "box_pierce", f]]
        parser = cli._parser()
        cached = [_main_output(argv, capsys) for argv in calls]
        assert cli._parser() is parser
        assert [c[0] for c in cached] == [EXIT_OK] * 4 + [EXIT_CONFIG, EXIT_OK]
        assert json.loads(cached[0][1])["tuning"] == {"L": 5, "M_selected": False, "M": 8}
        assert json.loads(cached[1][1])["tuning"]["M_selected"] is True
        assert set(json.loads(cached[2][1])["criterion_curve"]) == {"5", "10"}
        default_set = _feasible(100, DEFAULT_SEARCH_SET, DEFAULT_P)[0]
        assert set(json.loads(cached[3][1])["criterion_curve"]) == set(map(str, default_set))
        for argv in calls[:4] + calls[5:]:
            assert cli._parser().parse_args(argv) == cli._parser.__wrapped__().parse_args(argv)
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a new parser per call
        assert [_main_output(argv, capsys) for argv in calls] == cached


class TestGofTransformsOnce:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("extra", [[], ["--M", "10"], ["--L", "3"], ["--M", "7", "--L", "2"]])
    def test_one_dft_and_same_json(self, tmp_path, capsys, monkeypatch, seed, extra):
        rng = np.random.default_rng(seed)
        x = np.convolve(rng.standard_normal(600), 0.5 ** np.arange(40), "valid")[:512]
        path = tmp_path / "ar.csv"
        path.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        transforms = []

        def counted(block, demean=True, dft_block=spectral.dft_block):
            transforms.append(np.shape(block))
            return dft_block(block, demean)

        for module in (spectral, htests):
            monkeypatch.setattr(module, "dft_block", counted)
        assert main(["test", "gof_ar1", str(path)] + extra) == EXIT_OK
        assert transforms == [(1, 512)]
        monkeypatch.undo()

        opts = dict(zip(extra[::2], map(int, extra[1::2])))
        model = ar_model(1)
        fit = whittle_fit(spectral.dft(x), model)
        report = goodness_of_fit_test(x, lambda om: model.density(om, fit.theta_hat),
                                      L=opts.get("--L", 5), M=opts.get("--M"))
        want = report_to_dict(report)
        want["fitted_theta"] = [float(v) for v in fit.theta_hat]
        want["on_boundary"] = fit.on_boundary
        assert capsys.readouterr().out == json.dumps(want, indent=1) + "\n"


class TestGofUsesTheFittedDensity:
    """``orthosample test gof_ar1`` takes the fitted density from the fit:
    no AR transfer or density is evaluated outside it, and no objective."""

    @pytest.mark.parametrize("extra", [[], ["--M", "10", "--L", "3"]])
    def test_no_transfer_density_or_objective_call(self, tmp_path, capsys, monkeypatch,
                                                   extra):
        x = generate(MODEL_REGISTRY["ar_g_0.6"], 512, seed=5).series
        path = tmp_path / "ar.csv"
        path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
        calls = []
        for module, name in [(spectral, "ar_transfer"), (spectral, "ar_spectral_density"),
                             (whittle, "ar_transfer"), (whittle, "ar_spectral_density"),
                             (experiments, "ar_spectral_density")]:
            def counting(*args, name=name, f=getattr(module, name)):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(module, name, counting)
        assert main(["test", "gof_ar1", str(path)] + extra) == EXIT_OK
        assert calls == []
        assert json.loads(capsys.readouterr().out)["method"] == "orthogonal_gof"


def test_report_json_holds_numbers():
    # the intervals of a studentized report reach JSON as [level, lo, hi]
    # numbers, and an array or a tuple as a list of floats, not as reprs
    sample = spectral.orthogonal_sample(
        spectral.dft(np.random.default_rng(5).standard_normal(256)), spectral.lag_weight(1), 12)
    report = studentize(sample.base.real, 0.0, variance_estimate(sample), 256,
                        ci_levels=(0.9, 0.95, 0.99))
    out = json.loads(json.dumps(report_to_dict(report)))
    assert (out["statistic"], out["p_value"]) == (report.statistic, report.p_value)
    assert out["tuning"]["confidence_intervals"] == [
        [level, lo, hi] for level, (lo, hi) in report.tuning["confidence_intervals"].items()]
    assert out["tuning"]["M"] == 12 and out["tuning"]["one_sided"] is False
    other = htests.TestReport(statistic=1.0, p_value=0.5, null_ref="none", method="x",
                              tuning={"rows": np.array([0.25, 2.0]), "pair": (np.int64(1), 0.5)})
    assert json.loads(json.dumps(report_to_dict(other)))["tuning"] == {
        "rows": [0.25, 2.0], "pair": [1.0, 0.5]}


def test_python_dash_m_runs_the_cli(series_csv, capsys):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orthosample", "test", "gof_ar1", series_csv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["test", "gof_ar1", series_csv]) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out
