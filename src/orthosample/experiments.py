"""Configuration-driven Monte Carlo experiment runner.

Each experiment cell is a (model, T, method) triple run over many
replications. The cells of one (model, T) group test the same series (common
random numbers), generated once, a block at a time; replication r of the
group whose first cell is number c is seeded from (base_seed, c, r), so
results do not depend on how replications are grouped into blocks. With
``workers > 1`` one process pool serves the whole run: the groups run in
order, and the blocks of each group are spread over the pool. A cell's
``time_ms`` is an even share of its group's wall clock plus its own progress call.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import distributions as dist
from .equality import KernelSpec, _check_beta, equality_block
from .htests import (_lag_rows, box_pierce_block, goodness_of_fit_block, portmanteau_block,
                     robust_portmanteau_block)
from .models import (BURN_IN, MODEL_REGISTRY, _check_bivariate, generate_batch,
                     generate_bivariate_batch)
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, _search_set
from .spectral import (
    _integer,
    ar_spectral_density,
    dft_block,
    grid_constant,
    shift_runs,
)
from .variance import studentize_block, variance_block

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "ConfigError",
    "Method",
    "parse_search_set",
    "parse_config",
    "run_experiment",
    "emit",
    "CSV_HEADER",
]

CSV_HEADER = "model,T,method,alpha,rate,se,time_ms"
# Points in each array of a block of replications generated together: the
# recursions of a block run once per time step for all of its replications,
# so a group runs in as few blocks as keep each within 1 MB, of even sizes
# (2 x 100 replications at T = 100, nrep 200; 2 x 50 at T = 1024, nrep 100).
BLOCK_POINTS = 2**17

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
        for key in ("T", "nrep", "L", "M", "p", "seed", "workers"):  # the integer rule
            raw = getattr(self, key)
            try:
                value = (tuple(_integer(t, key) for t in raw) if key == "T" else
                         raw if raw is None else _integer(raw, key))
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad value for {key!r}: {raw!r}; {e}") from None
            object.__setattr__(self, key, value)
        if not self.T or min(self.T) < 2:
            raise ConfigError(f"T must be a non-empty list of lengths >= 2, got {self.T!r}")
        if not self.alphas or not all(0 < a < 1 for a in self.alphas):
            raise ConfigError(f"alphas must be a non-empty list of levels in (0, 1), "
                              f"got {self.alphas!r}")
        if self.experiment != "table_equality":
            if not self.models:
                raise ConfigError("models must be a non-empty list of model tags")
            for m in self.models:
                if m not in MODEL_REGISTRY:
                    raise ConfigError(f"unknown model tag {m!r}")
        if not self.methods and self.experiment not in ("qq_t10", "table_equality"):
            raise ConfigError("methods must be a non-empty list of method names")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose methods from {tuple(METHODS)}")
            if METHODS[m].paired and self.experiment != "table_equality":
                raise ConfigError(f"method {m!r} needs experiment table_equality")
        for key, lo in (("nrep", 1), ("workers", 1), ("seed", 0), ("L", 1), ("M", 1)):
            if getattr(self, key) is not None and getattr(self, key) < lo:
                raise ConfigError(f"{key} must be >= {lo}")
        # the null's AR(1) must be stationary, the rule ModelSpec applies to AR coefficients
        if self.gof_phi is not None and not abs(self.gof_phi) < 1:
            raise ConfigError(f"gof_phi={self.gof_phi} is not a stationary AR(1) coefficient")
        if self.gof_sigma is not None and not 0 < self.gof_sigma < np.inf:
            raise ConfigError(f"gof_sigma={self.gof_sigma} must be finite and > 0")
        # the owners' rules for the settings whose range does not depend on T
        try:
            _check_bivariate(self.delta, self.rho)
            _check_beta(self.beta)
            if self.b is not None:
                KernelSpec(self.b)
            object.__setattr__(self, "search_set", parse_search_set(self.search_set, "search_set"))
            object.__setattr__(self, "p", _search_set(self.search_set, self.p)[1])
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.experiment.startswith("table_gof"):
            missing = [k for k in ("gof_phi", "gof_sigma") if getattr(self, k) is None]
            if missing:
                raise ConfigError(f"{self.experiment} needs {' and '.join(missing)}")


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


def _split(v) -> list:
    """A list entry: a comma-separated string, a list or tuple, or one value."""
    if isinstance(v, str):
        return [s.strip() for s in v.split(",") if s.strip()]
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _int(raw):
    """A config integer from a decimal string; a number is left to the integer
    rule of ``ExperimentConfig`` (for a search-set member, the search-set rule)."""
    return int(raw) if isinstance(raw, str) else raw


def _beta(raw):
    """A beta setting, in a config or after ``--beta``: "estimate" or a number."""
    return raw if raw == "estimate" else float(raw)


def parse_search_set(spec, name: str) -> tuple:
    """The M search set given as "lo..hi", a comma list or a sequence of
    integers, after the search-set rule; a ConfigError naming ``name`` if not."""
    try:
        if isinstance(spec, str) and ".." in spec:
            lo, hi = spec.split("..")
            members = range(int(lo), int(hi) + 1)
        else:
            members = [_int(s) for s in _split(spec)]
        return _search_set(members, DEFAULT_P)[0]
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {name!r}: {spec!r}; {e}") from None


def _parse_value(key: str, raw):
    """Coerce one config entry; lists may be comma-separated strings."""
    if key in ("models", "methods"):
        return tuple(str(s) for s in _split(raw))
    if key == "T":
        return tuple(_int(s) for s in _split(raw))
    if key == "alphas":
        return tuple(float(s) for s in _split(raw))
    if key in ("nrep", "p", "L", "seed", "workers"):
        return _int(raw)
    if key == "M":
        return None if str(raw).lower() in ("select", "none") else _int(raw)
    if key in ("b", "gof_phi", "gof_sigma"):
        return None if str(raw).lower() == "none" else float(raw)
    if key in ("rho", "delta"):
        return float(raw)
    if key == "beta":
        return _beta(raw)
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
        try:
            parsed[key] = _parse_value(key, value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
    return ExperimentConfig(**parsed)


def _t10_statistics(cfg: ExperimentConfig, series: np.ndarray) -> list:
    """The lag-one statistic Re A(e^{i.}; 0) studentized against zero by its
    V-hat_M(0), for every row of an (R, T) block."""
    M = cfg.M if cfg.M is not None else 5
    # raw transform: centering the series shifts the statistic's location
    # noticeably at moderate T, while the zero-frequency term is harmless
    # for the zero-mean pivot models
    coeffs = dft_block(series, demean=False)
    T = coeffs.shape[1]
    runs = shift_runs(coeffs, _lag_rows(T, 1), M)[:, 0]
    stats, _ = studentize_block(runs[:, 0].real, 0.0, variance_block(runs[:, 1:], T), T)
    return stats.tolist()


def _orthogonal_pvalues(cfg: ExperimentConfig, series: np.ndarray) -> list:
    if cfg.experiment.startswith("table_gof"):
        def g(om, phi=cfg.gof_phi, sigma=cfg.gof_sigma):
            return ar_spectral_density(om, [phi], sigma)

        out = goodness_of_fit_block(series, g, L=cfg.L, M=cfg.M,
                                    search_set=cfg.search_set, p=cfg.p)
    else:
        out = portmanteau_block(series, L=cfg.L, M=cfg.M,
                                search_set=cfg.search_set, p=cfg.p)
    return out.p_values.tolist()


def _equality_values(cfg: ExperimentConfig, pair) -> list:
    """(p-value, beta-hat) of the equality test on each pair of rows."""
    out = equality_block(*pair, b=cfg.b, M=cfg.M, beta=cfg.beta)
    return list(zip(out.p_values.tolist(), out.tuning["beta"].tolist()))


def _row(cell: tuple, alpha: float, hits, n: int, ms: float) -> ResultRow:
    """The row of ``hits`` rejections in ``n`` replications of ``cell``: their
    percentage and its binomial standard error (both NaN if ``hits`` is)."""
    rate = 100.0 * hits / n
    se = 100.0 * np.sqrt((rate / 100) * (1 - rate / 100) / n)
    return ResultRow(*cell, alpha, rate, se, ms)


def _rate_rows(cfg, table, cell, pvals, ms) -> None:
    """One row per alpha level: the share of p-values below it, NaN if the
    cell failed."""
    for a in cfg.alphas:
        hits = np.nan if pvals is None else np.count_nonzero(
            np.asarray(pvals, dtype=float) < a)
        table.rows.append(_row(cell, a, hits, cfg.nrep, ms))


def _equality_rows(cfg, table, cell, values, ms) -> None:
    """The rate rows of the p-values; the cell's mean beta-hat goes to the
    table's ``beta_hat_mean`` metadata under "T<T>"."""
    if values is not None:
        table.metadata.setdefault("beta_hat_mean", {})[f"T{cell[1]}"] = float(
            np.mean([beta for _, beta in values]))
        values = [p for p, _ in values]
    _rate_rows(cfg, table, cell, values, ms)


_T10 = dist.student_t(10)


@grid_constant
def _t10_quantiles(n: int) -> np.ndarray:
    """The t(10) quantiles at the n plotting positions (i - 1/2) / n; a
    read-only grid constant that every table with n statistics shares."""
    return np.array([_T10.quantile(q) for q in (np.arange(1, n + 1) - 0.5) / n])


def _qq_rows(cfg, table, cell, stats, ms) -> None:
    """One row at alpha 0.05, a tail agreement summary: the percentage of
    statistics beyond the t(10) 5% critical value. The sorted statistics and
    their t(10) quantiles go to the table's quantile pairs. A failed cell gives
    one row of NaN, alpha included."""
    if stats is None:
        table.rows.append(ResultRow(*cell, np.nan, np.nan, np.nan, ms))
        return
    stats = np.sort(np.asarray(stats))
    table.quantile_pairs[f"{cell[0]}_T{cell[1]}"] = (stats, _t10_quantiles(stats.size))
    table.rows.append(_row(cell, 0.05, np.count_nonzero(np.abs(stats) > _T10.quantile(0.975)),
                           stats.size, ms))


class Method(NamedTuple):
    """How the cells of one method run. ``values(cfg, block)`` gives
    one value per replication of a block: an (R, T) array of series, or a
    pair of them if ``paired``. ``rows(cfg, table, cell, values, time_ms)``
    adds the cell's rows to the table; ``values`` is None if the cell failed."""
    values: Callable
    rows: Callable = _rate_rows
    paired: bool = False


METHODS = {
    "orthogonal": Method(_orthogonal_pvalues),
    "box_pierce": Method(lambda cfg, series: box_pierce_block(series, cfg.L).p_values.tolist()),
    "robust": Method(lambda cfg, series: robust_portmanteau_block(
        series, cfg.L).p_values.tolist()),
    "qq_t10": Method(_t10_statistics, _qq_rows),
    "equality": Method(_equality_values, _equality_rows, paired=True),
}


def _entropy_rows(seed: int, first: int, reps: range) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes of [seed, first, r], a row per r:
    the little-endian 32-bit words of seed (one for 0), then first and r."""
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    return np.array([[*words, first, r] for r in reps], dtype=np.uint32)


def _block_values(job: tuple) -> list:
    """One entry per method of the (model, T) group whose first cell is number
    ``first``, for its replications ``reps`` generated as one block: the
    method's values, or the bad-input error it raised, returned so that it
    crosses the process pool. Replication r draws the stream of [seed, first,
    r], and each series is a contiguous row, as a single draw would be."""
    cfg, first, (model, T), methods, reps = job
    seeds = _entropy_rows(cfg.seed, first, reps)
    if METHODS[methods[0]].paired:
        block = [out.series for out in generate_bivariate_batch(cfg.delta, cfg.rho, T, seeds)]
    else:
        block = generate_batch(MODEL_REGISTRY[model], T, seeds).series
    entries = []
    for method in methods:
        try:
            entries.append(METHODS[method].values(cfg, block))
        # bad input: InvalidInputError, ShiftRangeError, DegenerateDataError
        # and ConfigError are ValueErrors; any other error is a fault and propagates
        except ValueError as e:
            entries.append(e)
    return entries


def run_experiment(config: ExperimentConfig, progress=None) -> ResultTable:
    """Run every cell of the configured experiment, in order, and build its
    rows. The cells of a (model, T) group share its replications, which run
    in as few blocks as keep each within ``BLOCK_POINTS`` (T + BURN_IN points
    a replication), sizes differing by at most one, over one process pool for
    the run when ``workers > 1``. A cell's ``time_ms`` is its group's wall
    clock divided by the group's cells, plus its own ``progress`` call:
    ``progress`` is called once per cell and once at the end.

    A method that fails on bad input (a ValueError or DegenerateDataError,
    which is one) gives its cell rows with NaN rate instead of aborting the
    whole run, and leaves the other cells of its group as they are; any other
    exception propagates.
    """
    if progress is None:
        progress = lambda msg: print(msg, file=sys.stderr, flush=True)
    cfg = config
    table = ResultTable(metadata={"experiment": cfg.experiment, "seed": cfg.seed,
                                  "nrep": cfg.nrep})

    methods = {"qq_t10": ("qq_t10",), "table_equality": ("equality",)}.get(
        cfg.experiment, cfg.methods)
    models = ((f"ar_pair_rho{cfg.rho:g}_delta{cfg.delta:g}",)
              if cfg.experiment == "table_equality" else cfg.models)
    groups = [(m, T) for m in models for T in cfg.T]
    ncells = len(groups) * len(methods)

    t0 = time.perf_counter()
    if cfg.workers > 1:  # imported here: it pulls in multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for g, (model, T) in enumerate(groups):
            start, first = time.perf_counter(), g * len(methods)
            n = min(cfg.nrep, -(-cfg.nrep * (T + BURN_IN) // BLOCK_POINTS))
            jobs = [(cfg, first, (model, T), methods,
                     range(b * cfg.nrep // n, (b + 1) * cfg.nrep // n)) for b in range(n)]
            blocks = list(run(_block_values, jobs))
            share_ms = (time.perf_counter() - start) * 1000.0 / len(methods)
            for j, method in enumerate(methods):
                start, cell = time.perf_counter(), (model, T, method)
                error = next((b[j] for b in blocks if isinstance(b[j], Exception)), None)
                values = None if error else [v for b in blocks for v in b[j]]
                progress(f"cell {cell} failed: {error}" if error else
                         f"cell {first + j + 1}/{ncells} {cell} done")
                ms = share_ms + (time.perf_counter() - start) * 1000.0
                METHODS[method].rows(cfg, table, cell, values, ms)
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
            "metadata": table.metadata,
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
