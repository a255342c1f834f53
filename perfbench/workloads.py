"""The benchmark's workloads: input generation, the timed op and its output checks.

Each workload makes its inputs from the bench seed in batches, outside the
timed region.  ``run`` is the timed op and hands the program only the
generated inputs.  ``check`` returns the names of the output checks an op
failed and how many ops that failure costs.  ``intervals`` splits the op's
time at the host-speed probes run inside it into (seconds, latency divisor,
or None when the piece is no latency sample), and ``fingerprint`` is a value
that two runs on the same input must reproduce exactly.  ``probe_stream``
says whether the probe must include its memory-streaming part (see
``run.Probe``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import orthosample
from orthosample import cli, experiments

# The ten checked-in tables, fixed here so that adding a config does not
# change what the benchmark measures.
CONFIG_STEMS = (
    "equality_null", "equality_power", "gof_null_ar06_chi", "gof_null_ar06_gauss",
    "gof_null_ar09_chi", "gof_power_phi03", "qq_t10", "uncorrelated_null_T100",
    "uncorrelated_null_T500", "uncorrelated_power",
)
# AR(1) box that `orthosample test gof_ar1` fits (phi, sigma) on
GOF_AR1_BOUNDS = ((-0.95, 0.95), (0.1, 5.0))
# Two evaluations of one identity in float64 agree to ~1e-15 relative; the
# fit's 1e-6 parameter tolerance leaves an objective excess of order 1e-12.
IDENTITY_RTOL = 1e-9
OBJECTIVE_ATOL = 1e-9


def ar1(rng: np.random.Generator, phi: float, T: int) -> np.ndarray:
    """Stationary Gaussian AR(1) with unit innovations, as its moving-average
    form truncated where phi^k drops below 1e-16."""
    K = 1 if phi == 0 else max(1, math.ceil(-16 * math.log(10) / math.log(abs(phi))))
    eps = rng.standard_normal(T + K - 1)
    return np.convolve(eps, phi ** np.arange(K), mode="valid")


def circular_autocov(x: np.ndarray, lag: int) -> float:
    """c~(j) + c~(T-j) with c~(j) = (1/T) sum_t x_t x_{t+j}, x demeaned."""
    xc = x - x.mean()
    return float(np.dot(xc, np.roll(xc, -lag)) / xc.size)


def frequencies(T: int) -> np.ndarray:
    return 2 * np.pi * np.arange(T) / T


def periodogram(x: np.ndarray) -> np.ndarray:
    """|J_k|^2 of the demeaned series under the package's 1/sqrt(2 pi T)
    scaling, at the frequencies 2 pi k / T, k = 0..T-1."""
    return np.abs(np.fft.fft(x - x.mean())) ** 2 / (2 * np.pi * x.size)


def whittle_ar1(pgram: np.ndarray, phi, s2):
    """Whittle objective mean(I / f + log f) of the AR(1) density
    f = s2 / (2 pi) |1 - phi e^{iw}|^-2, for arrays of phi and s2."""
    phi = np.asarray(phi, dtype=float)[..., None]
    s2 = np.asarray(s2, dtype=float)[..., None]
    f = s2 / (2 * np.pi) / (1 - 2 * phi * np.cos(frequencies(pgram.size)) + phi**2)
    return np.mean(pgram / f + np.log(f), axis=-1)


def unit_interval(p) -> bool:
    return bool(np.isfinite(p) and 0.0 <= p <= 1.0)


def child_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class McTables:
    """One replication of a Monte Carlo cell is one op; a batch is one pass of
    `run_experiment` over the ten configs at their desk nrep."""

    name = "mc_tables"
    batch_nominal_s = 19.0
    probe_stream = False

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.configs = []
        for stem in CONFIG_STEMS:
            cfg = experiments.parse_config((root / "configs" / f"{stem}.cfg").read_text())
            cfg = dataclasses.replace(cfg, workers=1, nrep=2 if smoke else cfg.nrep)
            self.configs.append((stem, cfg))

    def batch(self, index: int) -> list:
        return [(stem, dataclasses.replace(cfg, seed=child_seed(self.seed, index, c)))
                for c, (stem, cfg) in enumerate(self.configs)]

    def warmup(self, inputs) -> None:
        for stem, cfg in inputs:
            self.run((stem, dataclasses.replace(cfg, nrep=1)))

    @staticmethod
    def run(inp, probe=None):
        """Runs the probe, when given, from the progress callback, which
        `run_experiment` calls after each cell (inside the cell's wall clock)
        and once at the end."""
        progress = (lambda msg: probe()) if probe else (lambda msg: None)
        return experiments.run_experiment(inp[1], progress=progress)

    @staticmethod
    def ops(inp) -> int:
        """Replications in the config: cells times nrep, cells as
        `run_experiment` lays them out."""
        cfg = inp[1]
        if cfg.experiment == "table_equality":
            cells = len(cfg.T)
        elif cfg.experiment == "qq_t10":
            cells = len(cfg.models) * len(cfg.T)
        else:
            cells = len(cfg.models) * len(cfg.T) * len(cfg.methods)
        return cells * cfg.nrep

    def check(self, inp, table) -> tuple[list, int]:
        cells = {}
        for row in table.rows:
            key = (row.model, row.T, row.method)
            if not np.isfinite(row.rate):
                cells.setdefault(key, "no_nan_rows")
            elif not 0.0 <= row.rate <= 100.0:
                cells.setdefault(key, "rates_in_range")
        return sorted(set(cells.values())), len(cells) * inp[1].nrep

    @staticmethod
    def intervals(inp, table, raw, inside) -> list:
        """The cells, each less the probe run at its end, as latency samples
        of their per-replication time; then the aggregation after the cells;
        then nothing for the gap after the last probe."""
        cell_s = [ms / 1e3 for ms in {(r.model, r.T, r.method): r.time_ms
                                     for r in table.rows}.values()]
        if len(inside) != len(cell_s) + 1:  # not one probe per cell plus one
            return [(raw, None)] + [(0.0, None)] * len(inside)
        cells = [(secs - p, inp[1].nrep) for secs, p in zip(cell_s, inside)]
        return cells + [(raw - sum(secs for secs, _ in cells), None), (0.0, None)]

    @staticmethod
    def fingerprint(inp, table) -> str:
        text = "\n".join([inp[0], *table.csv_lines(include_time=False)])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class LongSeries:
    """One analyst battery on a pair of T = 2^14 series."""

    name = "long_series"
    batch_nominal_s = 1.0
    probe_stream = True
    L = 5

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.T = 2**10 if smoke else 2**14
        self.batch_size = 2 if smoke else 8

    def batch(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        return [(ar1(rng, rng.uniform(-0.5, 0.5), self.T),
                 ar1(rng, rng.uniform(-0.5, 0.5), self.T))
                for _ in range(self.batch_size)]

    def warmup(self, inputs) -> None:
        self.run(inputs[0])

    @staticmethod
    def run(inp, probe=None):
        x, y = inp
        pt = orthosample.portmanteau_test(x, L=LongSeries.L)
        grid = orthosample.dft(x)
        sample = orthosample.orthogonal_sample(grid, orthosample.lag_weight(1), 20)
        student = orthosample.studentize(sample.base.real, 0.0,
                                         orthosample.variance_estimate(sample), grid.T)
        eq = orthosample.equality_test(x, y)
        return pt, sample, student, eq

    @staticmethod
    def ops(inp) -> int:
        return 1

    def check(self, inp, out) -> tuple[list, int]:
        x, _ = inp
        pt, sample, student, eq = out
        c0 = circular_autocov(x, 0)
        failures = []
        if not math.isclose(2 * np.pi * sample.base.real, circular_autocov(x, 1),
                            rel_tol=IDENTITY_RTOL, abs_tol=IDENTITY_RTOL * c0):
            failures.append("acov_identity")
        q_ref = x.size * sum((circular_autocov(x, j) / (2 * np.pi)) ** 2
                             for j in range(1, self.L + 1))
        if not math.isclose(pt.statistic, q_ref, rel_tol=IDENTITY_RTOL,
                            abs_tol=IDENTITY_RTOL * x.size * c0**2):
            failures.append("portmanteau_identity")
        if not all(unit_interval(r.p_value) for r in (pt, student, eq)):
            failures.append("p_values_in_unit_interval")
        return failures, 1 if failures else 0

    @staticmethod
    def intervals(inp, out, raw, inside) -> list:
        return [(raw, 1)]

    @staticmethod
    def fingerprint(inp, out) -> tuple:
        pt, sample, student, eq = out
        return (pt.statistic, pt.p_value, sample.base, student.statistic,
                eq.statistic, eq.p_value)


class ModelFit:
    """`orthosample test gof_ar1 <csv>` through `cli.main`, in process."""

    name = "model_fit"
    batch_nominal_s = 1.8
    probe_stream = False

    def __init__(self, root: Path, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.T = 512
        self.batch_size = 4 if smoke else 32
        self.workdir = workdir
        self.phi_grid = np.linspace(*GOF_AR1_BOUNDS[0], 381)

    def batch(self, index: int) -> list:
        """Writes the batch's CSVs, replacing the previous batch's files."""
        rng = np.random.default_rng([self.seed, index])
        inputs = []
        for j in range(self.batch_size):
            x = ar1(rng, rng.uniform(-0.8, 0.8), self.T)
            path = self.workdir / f"series{j}.csv"
            path.write_text("x\n" + "\n".join(repr(float(v)) for v in x) + "\n")
            inputs.append((str(path), x))
        return inputs

    def warmup(self, inputs) -> None:
        self.run(inputs[0])

    @staticmethod
    def run(inp, probe=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["test", "gof_ar1", inp[0]])
        return code, buf.getvalue()

    @staticmethod
    def ops(inp) -> int:
        return 1

    def grid_minimum(self, pgram: np.ndarray) -> float:
        """Minimum over a 381-point phi grid, with sigma^2 at its exact
        minimiser 2 pi mean(I |1 - phi e^{iw}|^2) clipped into the box."""
        phi = self.phi_grid[:, None]
        transfer = 1 - 2 * phi * np.cos(frequencies(pgram.size)) + phi**2
        s_lo, s_hi = GOF_AR1_BOUNDS[1]
        s2 = np.clip(2 * np.pi * np.mean(pgram * transfer, axis=1), s_lo**2, s_hi**2)
        return float(whittle_ar1(pgram, self.phi_grid, s2).min())

    def check(self, inp, out) -> tuple[list, int]:
        code, text = out
        if code != cli.EXIT_OK:
            return ["exit_code"], 1
        try:
            result = json.loads(text)
            phi, sigma = result["fitted_theta"]
            p = float(result["p_value"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return ["json_parses"], 1
        failures = []
        if not all(lo < v < hi for v, (lo, hi) in zip((phi, sigma), GOF_AR1_BOUNDS)):
            failures.append("theta_in_bounds")
        pgram = periodogram(inp[1])
        if not whittle_ar1(pgram, phi, sigma**2) <= self.grid_minimum(pgram) + OBJECTIVE_ATOL:
            failures.append("objective_not_worse_than_grid")
        if not unit_interval(p):
            failures.append("p_value_in_unit_interval")
        return failures, 1 if failures else 0

    intervals = staticmethod(LongSeries.intervals)

    @staticmethod
    def fingerprint(inp, out):
        return out


WORKLOADS = {w.name: w for w in (McTables, LongSeries, ModelFit)}
