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
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import distributions as dist
from .equality import KernelSpec, _check_beta, equality_block
from .htests import (_lag_rows, box_pierce_block, goodness_of_fit_block, portmanteau_block,
                     robust_portmanteau_block)
from .models import (BURN_IN, MODEL_REGISTRY, _check_bivariate, generate_batch,
                     generate_bivariate_batch)
from .selection import DEFAULT_P, DEFAULT_SEARCH_SET, _search_set
from .spectral import (_check_shift, _integer, _real, ar_spectral_density, dft_block,
                       grid_constant, shift_runs)
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
# so a group runs in as few blocks as keep each within 2 MB, of even sizes.
# Every checked-in config at its desk nrep runs one block a group (at most
# 200 x 1200 points, qq_t10 at T = 200); at paper nrep a group splits into
# ceil(nrep (T + 1000) / 2^18) blocks, such as 4 x 125 at T = 1024, nrep 500.
BLOCK_POINTS = 2**18

# Each experiment and the methods of its cells; () for the configured methods
EXPERIMENTS = {"qq_t10": ("qq_t10",), "table_equality": ("equality",),
               "table_uncorrelated_null": (), "table_uncorrelated_power": (),
               "table_gof_null": (), "table_gof_power": ()}


class ConfigError(ValueError):
    pass


def _split(v) -> list:
    """A list entry: a comma-separated string, a list, tuple or range, or one value."""
    if isinstance(v, str):
        return [s.strip() for s in v.split(",") if s.strip()]
    return list(v) if isinstance(v, (list, tuple, range)) else [v]


def _number(rule: Callable, name: str) -> Callable:
    """The rule (``_integer`` or ``_real``) of key ``name``; a string is read as int or float."""
    def read(raw):
        if isinstance(raw, str):
            try:
                raw = int(raw)  # so a long seed stays exact
            except ValueError:
                raw = float(raw)
        return rule(raw, name)
    return read


def _optional(rule: Callable, words=("none",)) -> Callable:
    return lambda raw: None if str(raw).lower() in words else rule(raw)


def _listed(rule: Callable) -> Callable:
    return lambda raw: tuple(rule(s) for s in _split(raw))


def _beta(raw):
    """A beta setting: "estimate" or a real number."""
    return raw if raw == "estimate" else _number(_real, "beta")(raw)


def _search_members(spec) -> tuple:
    """The search-set rule of "lo..hi", a list or one M; each M and end an integer."""
    if isinstance(spec, str) and ".." in spec:
        lo, hi = map(_number(_integer, "M"), spec.split(".."))
        spec = range(lo, hi + 1)
    return _search_set(map(_number(_integer, "M"), _split(spec)), DEFAULT_P)[0]


def _apply(key: str, rule: Callable, raw):
    """``rule(raw)``, or a ConfigError naming ``key``, ``raw`` and the cause."""
    try:
        return rule(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r}; {e}") from None


def parse_search_set(spec, name: str) -> tuple:
    """The M search set ``spec`` after its rule, or a ConfigError naming ``name``."""
    return _apply(name, _search_members, spec)


def _key(default, rule: Callable):
    """A config key's field: its default and its rule (see ExperimentConfig)."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment. Its fields are the rule table, the one home
    of each key's conversion: a file's string, a JSON value, a value in code and
    a command line option go to the key's rule, which names the key (or option)
    if it refuses one; the range checks follow, on the normalised fields."""

    experiment: str
    models: tuple = _key(("normal",), _listed(str))
    T: tuple = _key((100,), _listed(_number(_integer, "T")))
    nrep: int = _key(100, _number(_integer, "nrep"))
    # None means data-driven selection
    M: int | None = _key(None, _optional(_number(_integer, "M"), ("select", "none")))
    search_set: tuple = _key(tuple(DEFAULT_SEARCH_SET), _search_members)
    p: int = _key(DEFAULT_P, _number(_integer, "p"))
    L: int = _key(5, _number(_integer, "L"))
    b: float | None = _key(None, _optional(_number(_real, "b")))
    beta: float | str = _key("estimate", _beta)
    methods: tuple = _key(("orthogonal",), _listed(str))
    alphas: tuple = _key((0.05, 0.10), _listed(_number(_real, "alphas")))
    seed: int = _key(0, _number(_integer, "seed"))
    workers: int = _key(1, _number(_integer, "workers"))
    # goodness-of-fit null: spectral density sigma^2/(2 pi) |1 - phi e^{iw}|^{-2}
    gof_phi: float | None = _key(None, _optional(_number(_real, "gof_phi")))
    gof_sigma: float | None = _key(None, _optional(_number(_real, "gof_sigma")))
    # equality-test data: X ~ AR(0.8), Y ~ AR2(0.8, delta), corr(innov) = rho
    rho: float = _key(0.0, _number(_real, "rho"))
    delta: float = _key(0.0, _number(_real, "delta"))

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {tuple(EXPERIMENTS)}")
        for f in fields(self)[1:]:  # every key but experiment, in field order
            object.__setattr__(self, f.name, _apply(f.name, f.metadata["rule"],
                                                    getattr(self, f.name)))
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
        if not (methods := EXPERIMENTS[self.experiment] or self.methods):
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
        # the owners' rules for the settings whose range does not depend on T, and the
        # range rule 1 <= L, M < T/2 where it fails at every T (at the largest) for the
        # methods that take it; the Box-Pierce and robust baselines take 1 <= L < T
        try:
            _check_bivariate(self.delta, self.rho)
            _check_beta(self.beta)
            if self.b is not None:
                KernelSpec(self.b)
            _search_set(self.search_set, self.p)
            for key, users in (("L", {"orthogonal"}), ("M", {"orthogonal", "qq_t10", "equality"})):
                if getattr(self, key) is not None and users & set(methods):
                    _check_shift(max(self.T), getattr(self, key), key, 1)
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


def parse_config(text: str) -> ExperimentConfig:
    """Collect key=value lines, or a JSON object if the text starts with '{',
    and build the config from them: each value goes to its key's rule."""
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
    for key in entries:
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**entries)


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

    methods = EXPERIMENTS[cfg.experiment] or cfg.methods
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
