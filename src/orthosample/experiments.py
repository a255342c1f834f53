"""Configuration-driven Monte Carlo experiment runner.

Each experiment cell is a (model, T, method) triple run over many
replications; replication r of cell c is seeded from (base_seed, c, r), so
results do not depend on how replications are scheduled across workers.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .equality import equality_test
from .htests import (
    bootstrap_portmanteau_test,
    box_pierce,
    goodness_of_fit_test,
    portmanteau_test,
    robust_portmanteau,
)
from .models import MODEL_REGISTRY, generate, generate_bivariate
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET
from .spectral import (
    InvalidInputError,
    ar_spectral_density,
    dft,
    lag_weight,
    weighted_average_run,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "ConfigError",
    "parse_config",
    "run_experiment",
    "emit",
    "CSV_HEADER",
]

CSV_HEADER = "model,T,method,alpha,rate,se,time_ms"

EXPERIMENTS = (
    "qq_t10",
    "table_equality",
    "table_uncorrelated_null",
    "table_uncorrelated_power",
    "table_gof_null",
    "table_gof_power",
)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    models: tuple = ("normal",)
    T: tuple = (100,)
    nrep: int = 100
    M: int | None = None  # None means data-driven selection
    search_set: tuple = tuple(DEFAULT_SEARCH_SET)
    p: int = DEFAULT_P
    L: int = 5
    b: float | None = None
    beta: float | str = "estimate"
    B: int = 20
    n_boot: int = 500
    methods: tuple = ("orthogonal",)
    alphas: tuple = (0.05, 0.10)
    seed: int = 0
    workers: int = 1
    # goodness-of-fit null: spectral density sigma^2/(2 pi) |1 - phi e^{iw}|^{-2}
    gof_phi: float | None = None
    gof_sigma: float | None = None
    # equality-test data: X ~ AR(0.8), Y ~ AR2(0.8, delta), corr(innov) = rho
    rho: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        if self.nrep < 1:
            raise ConfigError("nrep must be >= 1")
        if self.experiment != "table_equality":
            for m in self.models:
                if m not in MODEL_REGISTRY:
                    raise ConfigError(f"unknown model tag {m!r}")
        for m in self.methods:
            if m not in ("orthogonal", "box_pierce", "robust", "bootstrap"):
                raise ConfigError(f"unknown method {m!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    model: str
    T: int
    method: str
    alpha: float
    rate: float  # rejection percentage in [0, 100]
    se: float    # Monte Carlo standard error, percentage points
    time_ms: float

    def csv(self) -> str:
        return (f"{self.model},{self.T},{self.method},{self.alpha:g},"
                f"{self.rate:.4f},{self.se:.4f},{self.time_ms:.1f}")


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    quantile_pairs: dict = field(default_factory=dict)  # label -> (emp, ref)

    def csv_lines(self, include_time: bool = True):
        yield CSV_HEADER if include_time else CSV_HEADER.rsplit(",", 1)[0]
        for row in self.rows:
            line = row.csv()
            yield line if include_time else line.rsplit(",", 1)[0]


def _parse_value(key: str, raw):
    """Coerce one config entry; lists may be comma-separated strings."""
    def split(v):
        if isinstance(v, str):
            return [s.strip() for s in v.split(",") if s.strip()]
        return list(v) if isinstance(v, (list, tuple)) else [v]

    if key in ("models", "methods"):
        return tuple(str(s) for s in split(raw))
    if key == "T":
        return tuple(int(s) for s in split(raw))
    if key == "alphas":
        return tuple(float(s) for s in split(raw))
    if key == "search_set":
        if isinstance(raw, str) and ".." in raw:
            lo, hi = raw.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in split(raw))
    if key in ("nrep", "p", "L", "B", "n_boot", "seed", "workers"):
        return int(raw)
    if key == "M":
        return None if str(raw).lower() in ("select", "none") else int(raw)
    if key in ("b", "gof_phi", "gof_sigma", "rho", "delta"):
        return None if str(raw).lower() == "none" else float(raw)
    if key == "beta":
        return "estimate" if str(raw) == "estimate" else float(raw)
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines, or a JSON object if the text starts with '{'."""
    text = text.strip()
    entries = {}
    if text.startswith("{"):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON config: {e}") from e
    else:
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    if "experiment" not in entries:
        raise ConfigError("config must set 'experiment'")
    known = set(ExperimentConfig.__dataclass_fields__)
    parsed = {}
    for key, value in entries.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        parsed[key] = _parse_value(key, value)
    return ExperimentConfig(**parsed)


def _rep_seed(base: int, cell: int, rep: int) -> list:
    return [int(base), int(cell), int(rep)]


def _t10_statistic(x: np.ndarray, M: int) -> float:
    # raw transform: centering the series shifts the statistic's location
    # noticeably at moderate T, while the zero-frequency term is harmless
    # for the zero-mean pivot models
    grid = dft(x, demean=False)
    run = weighted_average_run(grid, lag_weight(1), M)
    denom = np.sqrt(np.mean(np.abs(run[1:]) ** 2))
    return float(run[0].real / denom)


def _qq_rep(cfg: ExperimentConfig, model: str, T: int, cell: int, rep: int) -> float:
    out = generate(MODEL_REGISTRY[model], T, seed=_rep_seed(cfg.seed, cell, rep))
    return _t10_statistic(out.series, cfg.M if cfg.M is not None else 5)


def _test_rep(cfg: ExperimentConfig, model: str, T: int, method: str,
              cell: int, rep: int) -> float:
    """One replication of a level/power cell; returns the p-value."""
    seed = _rep_seed(cfg.seed, cell, rep)
    out = generate(MODEL_REGISTRY[model], T, seed=seed)
    x = out.series
    if method == "orthogonal":
        if cfg.experiment.startswith("table_gof"):
            phi, sigma = cfg.gof_phi, cfg.gof_sigma
            if phi is None or sigma is None:
                raise ConfigError("table_gof experiments need gof_phi and gof_sigma")

            def g(om, phi=phi, sigma=sigma):
                return ar_spectral_density(om, [phi], sigma)

            report = goodness_of_fit_test(x, g, L=cfg.L, M=cfg.M,
                                          search_set=cfg.search_set, p=cfg.p)
        else:
            report = portmanteau_test(x, L=cfg.L, M=cfg.M,
                                      search_set=cfg.search_set, p=cfg.p)
    elif method == "box_pierce":
        report = box_pierce(x, L=cfg.L)
    elif method == "robust":
        report = robust_portmanteau(x, L=cfg.L)
    elif method == "bootstrap":
        rng = np.random.default_rng(_rep_seed(cfg.seed, cell, rep) + [1])
        report = bootstrap_portmanteau_test(x, L=cfg.L, B=cfg.B,
                                            n_boot=cfg.n_boot, rng=rng)
    else:
        raise ConfigError(f"method {method!r} not valid here")
    return report.p_value


def _equality_rep(cfg: ExperimentConfig, T: int, cell: int, rep: int
                  ) -> tuple[float, float]:
    xo, yo = generate_bivariate(cfg.delta, cfg.rho, T,
                                seed=_rep_seed(cfg.seed, cell, rep))
    report = equality_test(xo.series, yo.series, b=cfg.b, M=cfg.M, beta=cfg.beta)
    return report.p_value, report.tuning["beta"]


def _run_reps(args):
    """Run the listed replications of one cell; ordering is irrelevant
    because each replication is seeded by its own index."""
    cfg, kind, payload, cell, reps = args
    if kind == "qq":
        model, T = payload
        return [(r, _qq_rep(cfg, model, T, cell, r)) for r in reps]
    if kind == "test":
        model, T, method = payload
        return [(r, _test_rep(cfg, model, T, method, cell, r)) for r in reps]
    if kind == "equality":
        (T,) = payload
        return [(r, _equality_rep(cfg, T, cell, r)) for r in reps]
    raise ValueError(kind)


def _run_cell(cfg: ExperimentConfig, kind: str, payload, cell: int) -> list:
    """All replications of one cell, optionally split across worker
    processes; results are reassembled by replication index."""
    reps = list(range(cfg.nrep))
    if cfg.workers > 1 and cfg.nrep > 1:
        chunks = [reps[i::cfg.workers] for i in range(cfg.workers)]
        jobs = [(cfg, kind, payload, cell, chunk) for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            pieces = list(pool.map(_run_reps, jobs))
        pairs = [pair for piece in pieces for pair in piece]
    else:
        pairs = _run_reps((cfg, kind, payload, cell, reps))
    pairs.sort(key=lambda pr: pr[0])
    return [value for _, value in pairs]


def _rate_rows(model: str, T: int, method: str, pvals, alphas, elapsed_ms,
               nrep: int) -> list:
    rows = []
    pvals = np.asarray(pvals, dtype=float)
    for a in alphas:
        rate = 100.0 * np.count_nonzero(pvals < a) / nrep
        se = 100.0 * np.sqrt((rate / 100) * (1 - rate / 100) / nrep)
        rows.append(ResultRow(model, T, method, a, rate, se, elapsed_ms))
    return rows


def run_experiment(config: ExperimentConfig, progress=None) -> ResultTable:
    """Run every cell of the configured experiment and aggregate decisions.

    A failing cell contributes rows with NaN rate instead of aborting the
    whole run.
    """
    if progress is None:
        progress = lambda msg: print(msg, file=sys.stderr, flush=True)
    cfg = config
    table = ResultTable(metadata={
        "experiment": cfg.experiment, "seed": cfg.seed, "nrep": cfg.nrep,
        "config": {k: getattr(cfg, k) for k in cfg.__dataclass_fields__},
    })

    if cfg.experiment == "qq_t10":
        cells = [("qq", (m, T)) for m in cfg.models for T in cfg.T]
    elif cfg.experiment == "table_equality":
        cells = [("equality", (T,)) for T in cfg.T]
    else:
        cells = [("test", (m, T, meth))
                 for m in cfg.models for T in cfg.T for meth in cfg.methods]

    t0 = time.perf_counter()
    outputs = []
    for i, (kind, payload) in enumerate(cells):
        start = time.perf_counter()
        try:
            out = _run_cell(cfg, kind, payload, i)
            err = None
            progress(f"cell {i + 1}/{len(cells)} {payload} done")
        except (InvalidInputError, ConfigError, ValueError,
                ZeroDivisionError) as e:
            out, err = None, e
            progress(f"cell {payload} failed: {e}")
        outputs.append((kind, payload, out, err,
                        (time.perf_counter() - start) * 1000.0))

    ref_t10 = dist.student_t(10)
    for kind, payload, out, err, ms in outputs:
        if kind == "qq":
            model, T = payload
            if err is not None:
                table.rows.append(ResultRow(model, T, "qq_t10", float("nan"),
                                            float("nan"), float("nan"), ms))
                continue
            stats = np.sort(np.asarray(out))
            probs = (np.arange(1, stats.size + 1) - 0.5) / stats.size
            ref = np.array([ref_t10.quantile(q) for q in probs])
            table.quantile_pairs[f"{model}_T{T}"] = (stats, ref)
            # tail agreement summary: fraction beyond the reference 5% critical value
            crit = ref_t10.quantile(0.975)
            rate = 100.0 * np.count_nonzero(np.abs(stats) > crit) / stats.size
            se = 100.0 * np.sqrt((rate / 100) * (1 - rate / 100) / stats.size)
            table.rows.append(ResultRow(model, T, "qq_t10", 0.05, rate, se, ms))
        elif kind == "equality":
            (T,) = payload
            model = f"ar_pair_rho{cfg.rho:g}_delta{cfg.delta:g}"
            if err is not None:
                for a in cfg.alphas:
                    table.rows.append(ResultRow(model, T, "equality", a,
                                                float("nan"), float("nan"), ms))
                continue
            pvals = [p for p, _ in out]
            betas = [bh for _, bh in out]
            table.rows.extend(_rate_rows(model, T, "equality", pvals,
                                         cfg.alphas, ms, cfg.nrep))
            table.metadata.setdefault("beta_hat_mean", {})[f"T{T}"] = float(
                np.mean(betas))
        else:
            model, T, method = payload
            if err is not None:
                for a in cfg.alphas:
                    table.rows.append(ResultRow(model, T, method, a,
                                                float("nan"), float("nan"), ms))
                continue
            table.rows.extend(_rate_rows(model, T, method, out, cfg.alphas,
                                         ms, cfg.nrep))
    table.metadata["total_ms"] = (time.perf_counter() - t0) * 1000.0
    progress(f"experiment {cfg.experiment} finished: {len(table.rows)} rows")
    return table


def emit(table: ResultTable, out_prefix: str, json_too: bool = False) -> list:
    """Write <prefix>.csv (and optionally .json, and QQ pair files).

    Returns the list of written paths.
    """
    if not table.rows:
        raise ValueError("refusing to emit an empty result table")
    paths = []
    csv_path = f"{out_prefix}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        for line in table.csv_lines():
            fh.write(line + "\n")
    paths.append(csv_path)
    if json_too:
        json_path = f"{out_prefix}.json"
        payload = {
            "metadata": {k: v for k, v in table.metadata.items() if k != "config"},
            "rows": [row.__dict__ for row in table.rows],
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=str)
        paths.append(json_path)
    for label, (emp, ref) in table.quantile_pairs.items():
        qq_path = f"{out_prefix}_qq_{label}.csv"
        with open(qq_path, "w", encoding="utf-8") as fh:
            fh.write("empirical,reference\n")
            for e, r in zip(emp, ref):
                fh.write(f"{e:.10g},{r:.10g}\n")
        paths.append(qq_path)
    return paths
