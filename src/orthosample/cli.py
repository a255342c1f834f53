"""Command line interface.

Verbs:
  run <config>                  run a Monte Carlo experiment from a config file
  test <kind> <datafile>        run one test on user data (CSV), with its kind's options
  selectM <datafile>            data-driven choice of the number of shifts

Exit codes: 0 success, 2 configuration/usage error, 3 data error.
The options have no rules of their own: each number, like ORTHOSAMPLE_WORKERS
(which overrides the configured worker count, the processes of the one pool
that serves a run), obeys the rule of the config key of its name.
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
from .experiments import (ConfigError, ExperimentConfig, _apply, emit, parse_config,
                          parse_search_set, run_experiment)
from .htests import (TestReport, _goodness_of_fit_coeffs, box_pierce, portmanteau_test,
                     robust_portmanteau)
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, select_M
from .spectral import dft, lag_weight
from .whittle import ar_model, whittle_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

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


def _json_value(value):
    """A tuning value in JSON numbers; intervals {level: (lo, hi)} as [[level, lo, hi], ...]."""
    if isinstance(value, dict):
        return [[level, *map(float, interval)] for level, interval in value.items()]
    return value if np.isscalar(value) else np.asarray(value, dtype=float).tolist()


def report_to_dict(report: TestReport) -> dict:
    return {
        "method": report.method,
        "statistic": report.statistic,
        "p_value": report.p_value,
        "null_reference": str(report.null_ref),
        "tuning": {k: _json_value(v) for k, v in report.tuning.items()},
        "decisions": {str(a): bool(d) for a, d in report.decisions.items()},
    }


def _gof_ar1(x, M, L) -> dict:
    grid = dft(x)  # one transform for the fit and the test
    fit = whittle_fit(grid, ar_model(1))
    block = _goodness_of_fit_coeffs(grid.coeffs[None], fit.density, L, M,
                                    DEFAULT_SEARCH_SET, DEFAULT_P)
    return report_to_dict(block.report()) | {
        "fitted_theta": [float(v) for v in np.atleast_1d(fit.theta_hat)],
        "on_boundary": fit.on_boundary}


def _equality(x, y, M, b, beta) -> dict:
    report = equality_test(x, y, b=b, M=M, beta=beta)
    return report_to_dict(report) | {"transformed_statistic": report.tuning["z"]}


# Each test kind: its CSV columns, its options (config keys, each with the key's
# default and rule) and its runner, from the columns and options to the JSON report.
TESTS = {
    "portmanteau": (1, ("M", "L"), lambda x, M, L: report_to_dict(portmanteau_test(x, L=L, M=M))),
    "box_pierce": (1, ("L",), lambda x, L: report_to_dict(box_pierce(x, L=L))),
    "robust": (1, ("L",), lambda x, L: report_to_dict(robust_portmanteau(x, L=L))),
    "gof_ar1": (1, ("M", "L"), _gof_ar1),
    "equality": (2, ("M", "b", "beta"), _equality),
}
_KEYS = ExperimentConfig.__dataclass_fields__


class _BeforeKind(argparse.Action):
    """A kind's option given before the kind: a usage error that names it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the kind: "
                     f"orthosample test <kind> <datafile> {option_string} {values}")


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser.  An unknown option before ``test``'s kind is a usage
    error that names it, where argparse would read its value as the kind."""

    def parse_known_args(self, args=None, namespace=None):
        head = args[0].split("=")[0] if args else ""
        if self._subparsers and head.startswith("-") and head not in self._option_string_actions:
            self.error(f"unrecognized arguments: {args[0]}")
        return super().parse_known_args(args, namespace)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(prog="orthosample", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

    p_run = sub.add_parser("run", help="run an experiment config", allow_abbrev=False)
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results", help="output path prefix")
    p_run.add_argument("--json", action="store_true", help="also write JSON")
    p_run.add_argument("--nrep", help="override replication count (e.g. paper scale)")

    p_test = sub.add_parser("test", help="run one test on a data file", allow_abbrev=False)
    for key in dict.fromkeys(chain.from_iterable(options for _, options, _ in TESTS.values())):
        p_test.add_argument(f"--{key}", action=_BeforeKind, default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS)
    kinds = p_test.add_subparsers(dest="kind", required=True)
    for kind, (_, options, _) in TESTS.items():
        p_kind = kinds.add_parser(kind, help=f"takes --{', --'.join(options)}", allow_abbrev=False)
        p_kind.add_argument("datafile")
        for key in options:
            p_kind.add_argument(f"--{key}", default=_KEYS[key].default,
                                help='"estimate" or a number' if key == "beta" else None)

    p_sel = sub.add_parser("selectM", help="choose the number of shifts", allow_abbrev=False)
    p_sel.add_argument("datafile")
    p_sel.add_argument("--p", default=DEFAULT_P)
    p_sel.add_argument("--set", default=tuple(DEFAULT_SEARCH_SET), dest="search_set",
                       help="search set, e.g. 10..30 or 5,10,20")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0

    try:
        opts = {k: _apply(f"--{k}", _KEYS[k].metadata["rule"], v)
                for k, v in vars(args).items() if k in ("M", "L", "b", "beta", "p")}
        if args.verb == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = parse_config(fh.read())
            except OSError as e:
                raise ConfigError(f"cannot read config {args.config}: {e}") from e
            out_dir = os.path.dirname(args.out) or "."
            if not os.path.isdir(out_dir):
                raise ConfigError(f"--out: directory {out_dir!r} does not exist")
            for source, key, raw in (("--nrep", "nrep", args.nrep), ("ORTHOSAMPLE_WORKERS",
                                     "workers", os.environ.get("ORTHOSAMPLE_WORKERS") or None)):
                try:
                    cfg = cfg if raw is None else replace(cfg, **{key: raw})
                except ConfigError as e:
                    raise ConfigError(f"{source}={raw!r}: {e}") from None
            for path in emit(run_experiment(cfg), args.out, json_too=args.json):
                print(path)
            return EXIT_OK
        if args.verb == "test":
            columns, _, runner = TESTS[args.kind]
            print(json.dumps(runner(*load_series(args.datafile, columns), **opts), indent=1))
            return EXIT_OK
        if args.verb == "selectM":
            (x,) = load_series(args.datafile, columns=1)
            grid = dft(x, demean=True)
            # a bad --set is a config error, found before a bad --p
            sel = select_M(grid, lag_weight(1), parse_search_set(args.search_set, "--set"),
                           opts["p"])
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
