"""Command line interface.

Verbs:
  run <config>                  run a Monte Carlo experiment from a config file
  test <kind> <datafile>        run one test on user data (CSV)
  selectM <datafile>            data-driven choice of the number of shifts

Exit codes: 0 success, 2 configuration/usage error, 3 data error.
The ORTHOSAMPLE_WORKERS environment variable overrides the configured
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .equality import equality_test
from .experiments import ConfigError, emit, parse_config, run_experiment
from .htests import TestReport, box_pierce, goodness_of_fit_test, portmanteau_test, robust_portmanteau
from .selection import DEFAULT_P, feasible_search_set, select_M
from .spectral import InvalidInputError, ShiftRangeError, dft, lag_weight
from .whittle import ar_model, whittle_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

TEST_KINDS = ("portmanteau", "box_pierce", "robust", "gof_ar1", "equality")


class DataError(ValueError):
    pass


def load_series(path: str, columns: int | None = None) -> list[np.ndarray]:
    """Read a one- or two-column CSV of real values; optional header row.

    Raises DataError naming the offending line on parse failure.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    cols: list[list[float]] = []
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


def _parse_set(spec: str):
    if ".." in spec:
        lo, hi = spec.split("..")
        return range(int(lo), int(hi) + 1)
    return tuple(int(s) for s in spec.split(","))


def report_to_dict(report: TestReport) -> dict:
    ref = report.null_ref
    ref_desc = (f"{ref.kind} draws (n={ref.draws.size})"
                if hasattr(ref, "draws") else str(ref))
    return {
        "method": report.method,
        "statistic": report.statistic,
        "p_value": report.p_value,
        "null_reference": ref_desc,
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
        model = ar_model(1)
        fit = whittle_fit(dft(x), model)

        def g(om, theta=fit.theta_hat, model=model):
            return model.density(np.asarray(om, dtype=float), theta)

        report = goodness_of_fit_test(x, g, L=L, M=M)
        out = report_to_dict(report)
        out["fitted_theta"] = [float(v) for v in np.atleast_1d(fit.theta_hat)]
        out["on_boundary"] = fit.on_boundary
        return out
    else:
        raise ConfigError(f"unknown test kind {kind!r}; choose from {TEST_KINDS}")
    return report_to_dict(report)


def main(argv=None) -> int:
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
    p_test.add_argument("--beta", default="estimate")

    p_sel = sub.add_parser("selectM", help="choose the number of shifts")
    p_sel.add_argument("datafile")
    p_sel.add_argument("--p", type=int, default=DEFAULT_P)
    p_sel.add_argument("--set", default="10..30", dest="search_set",
                       help="search set, e.g. 10..30 or 5,10,20")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0

    try:
        if args.verb == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    cfg = parse_config(fh.read())
            except OSError as e:
                raise ConfigError(f"cannot read config {args.config}: {e}") from e
            if args.nrep is not None:
                cfg = replace(cfg, nrep=args.nrep)
            workers_env = os.environ.get("ORTHOSAMPLE_WORKERS")
            if workers_env:
                cfg = replace(cfg, workers=max(1, int(workers_env)))
            table = run_experiment(cfg)
            for path in emit(table, args.out, json_too=args.json):
                print(path)
            return EXIT_OK
        if args.verb == "test":
            beta = args.beta if args.beta == "estimate" else float(args.beta)
            result = run_single_test(args.kind, args.datafile, M=args.M,
                                     L=args.L, b=args.b, beta=beta)
            print(json.dumps(result, indent=1))
            return EXIT_OK
        if args.verb == "selectM":
            (x,) = load_series(args.datafile, columns=1)
            grid = dft(x, demean=True)
            feasible = feasible_search_set(grid.T, _parse_set(args.search_set),
                                           args.p)
            sel = select_M(grid, lag_weight(1), feasible, args.p)
            print(json.dumps({
                "chosen_M": sel.chosen_M,
                "p": sel.p,
                "criterion_curve": {str(m): v for m, v in
                                    sorted(sel.criterion_curve.items())},
            }, indent=1))
            return EXIT_OK
    except (ConfigError,) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InvalidInputError, ShiftRangeError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
