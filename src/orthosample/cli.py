"""Command line interface.

Verbs:
  run <config>                  run a Monte Carlo experiment from a config file
  test <kind> <datafile>        run one test on user data (CSV)
  selectM <datafile>            data-driven choice of the number of shifts

Exit codes: 0 success, 2 configuration/usage error, 3 data error.
The ORTHOSAMPLE_WORKERS environment variable overrides the configured
worker count: the processes of the one pool that serves a run, over which
each cell's blocks of replications are spread.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from itertools import chain, repeat

import numpy as np

from .equality import equality_test
from .experiments import ConfigError, _beta, emit, parse_config, parse_search_set, run_experiment
from .htests import (TestReport, _goodness_of_fit_coeffs, _orthogonal_report, box_pierce,
                     portmanteau_test, robust_portmanteau)
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, select_M
from .spectral import dft, lag_weight
from .whittle import ar_model, whittle_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

TEST_KINDS = ("portmanteau", "box_pierce", "robust", "gof_ar1", "equality")


class DataError(ValueError):
    pass


def load_series(path: str, columns: int | None = None) -> list[np.ndarray]:
    """Read a one- or two-column CSV of real values; optional header row.

    One ``map(float, ...)`` parses every field of the file; on failure the
    lines are walked once to raise DataError naming the first offending line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    rows = list(filter(str.strip, lines))
    header = bool(rows) and not _parses(rows[0])
    del rows[:int(header)]
    if not rows:
        raise DataError(f"{path}: no data rows")
    ncol = rows[0].count(",") + 1
    try:
        # float() rejects every comma, so only rows of two or more columns can be ragged
        if ncol > 1 and set(map(str.count, rows, repeat(","))) != {ncol - 1}:
            raise ValueError("ragged rows")
        fields = rows if ncol == 1 else chain.from_iterable(map(str.split, rows, repeat(",")))
        values = np.fromiter(map(float, fields), float, len(rows) * ncol)
    except ValueError:
        raise _first_bad_line(path, lines, ncol, header) from None
    if columns is not None and ncol != columns:
        raise DataError(f"{path}: expected {columns} column(s), found {ncol}")
    return list(np.ascontiguousarray(values.reshape(-1, ncol).T))


def _parses(line: str) -> bool:
    try:
        list(map(float, line.split(",")))
    except ValueError:
        return False
    return True


def _first_bad_line(path: str, lines: list[str], ncol: int, header: bool) -> DataError:
    """The error for the first data line, in file order, that does not parse
    or has another column count than ``ncol``; ``header`` skips the first
    non-empty line."""
    data = [(ln, line) for ln, line in enumerate(lines, start=1) if line.strip()]
    for ln, line in data[int(header):]:
        if not _parses(line):
            return DataError(f"{path}: line {ln}: cannot parse {line!r}")
        if line.count(",") + 1 != ncol:
            return DataError(f"{path}: line {ln}: expected {ncol} columns, "
                             f"got {line.count(',') + 1}")
    raise AssertionError("no bad line")


def report_to_dict(report: TestReport) -> dict:
    return {
        "method": report.method,
        "statistic": report.statistic,
        "p_value": report.p_value,
        "null_reference": str(report.null_ref),
        "tuning": {k: (v if np.isscalar(v) else str(v))
                   for k, v in report.tuning.items()},
        "decisions": {str(a): bool(d) for a, d in report.decisions.items()},
    }


def run_single_test(kind: str, path: str, M=None, L: int = 5, b=None,
                    beta="estimate") -> dict:
    if kind == "equality":
        x, y = load_series(path, columns=2)
        report = equality_test(x, y, b=b, M=M, beta=beta)
        out = report_to_dict(report)
        out["transformed_statistic"] = report.tuning["z"]
        return out
    (x,) = load_series(path, columns=1)
    if kind == "portmanteau":
        report = portmanteau_test(x, L=L, M=M)
    elif kind == "box_pierce":
        report = box_pierce(x, L=L)
    elif kind == "robust":
        report = robust_portmanteau(x, L=L)
    elif kind == "gof_ar1":
        grid = dft(x)  # one transform for the fit and the test
        fit = whittle_fit(grid, ar_model(1))
        block = _goodness_of_fit_coeffs(grid.coeffs[None], fit.density, L, M,
                                        DEFAULT_SEARCH_SET, DEFAULT_P)
        report = _orthogonal_report(block, "orthogonal_gof", L, M is None)
        out = report_to_dict(report)
        out["fitted_theta"] = [float(v) for v in np.atleast_1d(fit.theta_hat)]
        out["on_boundary"] = fit.on_boundary
        return out
    else:
        raise ConfigError(f"unknown test kind {kind!r}; choose from {TEST_KINDS}")
    return report_to_dict(report)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(prog="orthosample", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results", help="output path prefix")
    p_run.add_argument("--json", action="store_true", help="also write JSON")
    p_run.add_argument("--nrep", type=int, default=None,
                       help="override replication count (e.g. paper scale)")

    p_test = sub.add_parser("test", help="run one test on a data file")
    p_test.add_argument("kind", choices=TEST_KINDS)
    p_test.add_argument("datafile")
    p_test.add_argument("--M", type=int, default=None)
    p_test.add_argument("--L", type=int, default=5)
    p_test.add_argument("--b", type=float, default=None)
    p_test.add_argument("--beta", type=_beta, default="estimate",
                        help='"estimate" or a number')

    p_sel = sub.add_parser("selectM", help="choose the number of shifts")
    p_sel.add_argument("datafile")
    p_sel.add_argument("--p", type=int, default=DEFAULT_P)
    p_sel.add_argument("--set", default=tuple(DEFAULT_SEARCH_SET), dest="search_set",
                       help="search set, e.g. 10..30 or 5,10,20")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0

    try:
        if args.verb == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = parse_config(fh.read())
            except OSError as e:
                raise ConfigError(f"cannot read config {args.config}: {e}") from e
            out_dir = os.path.dirname(args.out) or "."
            if not os.path.isdir(out_dir):
                raise ConfigError(f"--out: directory {out_dir!r} does not exist")
            if args.nrep is not None:
                cfg = replace(cfg, nrep=args.nrep)
            workers_env = os.environ.get("ORTHOSAMPLE_WORKERS")
            try:
                cfg = replace(cfg, workers=int(workers_env)) if workers_env else cfg
            except ValueError:  # the config's worker-count rule, or not an integer
                raise ConfigError("ORTHOSAMPLE_WORKERS must be an integer >= 1, "
                                  f"got {workers_env!r}") from None
            table = run_experiment(cfg)
            for path in emit(table, args.out, json_too=args.json):
                print(path)
            return EXIT_OK
        if args.verb == "test":
            result = run_single_test(args.kind, args.datafile, M=args.M,
                                     L=args.L, b=args.b, beta=args.beta)
            print(json.dumps(result, indent=1))
            return EXIT_OK
        if args.verb == "selectM":
            (x,) = load_series(args.datafile, columns=1)
            grid = dft(x, demean=True)
            # a bad --set is a config error, found before a bad --p
            sel = select_M(grid, lag_weight(1), parse_search_set(args.search_set, "--set"),
                           args.p)
            print(json.dumps({
                "chosen_M": sel.chosen_M,
                "p": sel.p,
                "criterion_curve": {str(m): v for m, v in
                                    sorted(sel.criterion_curve.items())},
            }, indent=1))
            return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:  # DegenerateDataError included
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
