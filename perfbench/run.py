"""orthosample benchmark: one workload per process, `workers=1`.

    python3 perfbench/run.py --workload long_series --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing,
its times scaled to a reference host speed by a probe kernel run between ops
(see ``Probe``).  With ``--trace 1`` it runs a fixed window of ops, each once
with the tracer installed and once without, and reports the per-layer metrics
and the tracing overhead.  The output checks run either way.  Standard output ends with a line
holding the run's facts and check results, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced run are
written to ``perfbench/out/spans-<workload>.npz``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("mc_tables", "long_series", "model_fit")
SETUP_SAMPLES = 5
# Times of the two parts of `Probe` at the host speed the reported times are
# scaled to: about their medians on the 2-core Intel Xeon VM the bounds in
# BENCHMARK.json were set on.
PROBE_INTERP_S = 2.5e-3
PROBE_STREAM_S = 2.0e-3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the harness itself")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


class Probe:
    """Times a fixed kernel of interpreted arithmetic and small numpy calls,
    plus, when `stream` is set, passes over an 8 MB working set.

    The host this runs on changes speed by up to a factor of two for tens of
    seconds at a time, and the ops slow down with it.  Timings are multiplied
    by the probe's reference time over its measured time around them, which
    removes most of that drift.  Workloads bound by the interpreter and small
    arrays track the first part; `long_series`, whose 2^14-point transforms
    also slow down with memory contention, needs the second.  The probe uses
    no orthosample code, so a change to the program cannot move it.

    Every measurement is kept in `times`; the time between measurements g
    and g + 1 is scaled by their mean.
    """

    def __init__(self, stream: bool):
        import numpy as np
        self.np = np
        self.stream = stream
        self.ref_s = PROBE_INTERP_S + (PROBE_STREAM_S if stream else 0.0)
        self.small = np.linspace(-2.0, 2.0, 512)
        self.big = np.linspace(-2.0, 2.0, 1 << 18) * (1 + 1j) if stream else None
        self.out = np.empty_like(self.big) if stream else None
        self.times = []

    def __call__(self) -> float:
        np, small = self.np, self.small
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(10000):
            acc += i * 0.5
        for _ in range(100):
            np.mean(np.abs(small * 1.5) ** 2 + np.log(small * small + 1.0))
        if self.stream:
            for _ in range(3):
                np.multiply(self.big, self.big, out=self.out)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def scale(self, gap: int) -> float:
        """Factor for the time between measurements `gap` and `gap + 1`."""
        return 2 * self.ref_s / (self.times[gap] + self.times[gap + 1])


def setup(args, workdir: Path):
    """Import, the first batch of inputs and one warm-up op, timed together.

    Returns the workload, its first batch, a probe, and the set-up time raw
    and scaled by the probe taken right after it."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, workdir)
    inputs = work.batch(0)
    work.warmup(inputs)
    raw = time.perf_counter() - t0
    probe = Probe(work.probe_stream)
    return work, inputs, probe, raw, raw * probe.ref_s / probe()


def extra_setup_times(args) -> list:
    """Scaled set-up times of fresh processes, which import from scratch."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_call(work, inp, probe=None, context=None):
    """Run one op; an exception is returned as the op's output."""
    t0 = time.perf_counter()
    try:
        with context or contextlib.nullcontext():
            out = work.run(inp, probe)
    except Exception as exc:  # a failed op is counted, and the run goes on
        out = exc
    return out, time.perf_counter() - t0


class Tally:
    """Ops attempted and failed, check results, and the raw time of each
    interval between two probes with its latency divisor (None when the
    interval is no latency sample)."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.intervals = []  # (probe gap, raw seconds, divisor)
        self.checks = collections.Counter()
        self.digest = hashlib.sha256()

    def add(self, work, inp, out, first_batch: bool) -> int:
        """Count the op and check its output; returns the ops that failed."""
        ops = work.ops(inp)
        self.attempted += ops
        if isinstance(out, Exception):
            failures, lost = [f"raised_{type(out).__name__}"], ops
        else:
            failures, lost = work.check(inp, out)
        self.checks.update(failures)
        self.failed += lost
        if first_batch:
            self.digest.update(repr(fingerprint(work, inp, out)).encode())
        return lost

    def raw_busy_s(self) -> float:
        return sum(raw for _, raw, _ in self.intervals)

    def scaled(self, probe) -> tuple:
        """(busy seconds, latency samples in ms), scaled by the probe."""
        busy, latencies = 0.0, []
        for gap, raw, divisor in self.intervals:
            secs = raw * probe.scale(gap)
            busy += secs
            if divisor:
                latencies.append(secs * 1e3 / divisor)
        return busy, latencies


def fingerprint(work, inp, out):
    return repr(out) if isinstance(out, Exception) else work.fingerprint(inp, out)


def measure(work, inputs, seconds: float, tally: Tally, probe: Probe) -> int:
    """Whole batches of ops until `seconds` have passed; returns the batch count.

    A probe runs between every two ops, and an op may run more from inside
    (see `McTables.run`); their time is taken out of the op's."""
    begin = time.perf_counter()
    index = 0
    probe()
    while True:
        for inp in inputs:
            gap = len(probe.times) - 1
            out, dt = timed_call(work, inp, probe)
            inside = probe.times[gap + 1:]
            raw = dt - sum(inside)
            if isinstance(out, Exception):
                pieces = [(raw, None)]
            else:
                pieces = work.intervals(inp, out, raw, inside)
            tally.intervals += [(gap + i, secs, divisor)
                                for i, (secs, divisor) in enumerate(pieces)]
            tally.add(work, inp, out, index == 0)
            probe()
        index += 1
        if time.perf_counter() - begin >= seconds:
            return index
        inputs = work.batch(index)


def measure_traced(work, inputs, seconds: float, tally: Tally, tracer) -> tuple:
    """A window of whole batches fixed by `seconds`, so that two runs with the
    same seed trace the same ops.  Each op runs traced and untraced, the order
    alternating; the untraced output is checked and the traced one must match
    it.  Returns (batches, traced seconds, per-config [ops, untraced seconds])."""
    batches = max(1, round(seconds / (2 * work.batch_nominal_s)))
    traced_s = 0.0
    per_config = collections.defaultdict(lambda: [0, 0.0])
    op_id = 0
    for index in range(batches):
        if index:
            inputs = work.batch(index)
        for inp in inputs:
            if op_id % 2:
                out, dt = timed_call(work, inp)
            out_t, dt_t = timed_call(work, inp, context=tracer.active(op_id))
            if not op_id % 2:
                out, dt = timed_call(work, inp)
            tally.intervals.append((None, dt, None))
            lost = tally.add(work, inp, out, index == 0)
            if fingerprint(work, inp, out_t) != fingerprint(work, inp, out):
                tally.checks["tracing_changes_output"] += 1
                tally.failed += work.ops(inp) - lost
            traced_s += dt_t
            if work.name == "mc_tables":
                per_config[inp[0]][0] += work.ops(inp)
                per_config[inp[0]][1] += dt
            op_id += 1
    return batches, traced_s, per_config


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "fft.flop_computed": "flop", "fft.bytes_computed": "B"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith((".share", "_frac")):
        return "frac"
    if metric.endswith(".ops_per_s"):
        return "1/s"
    return "count"


def host_facts() -> dict:
    import numpy as np
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "cpu_model": None, "caches": {}, "python": platform.python_version(),
             "numpy": np.__version__, "git_sha": None, "git_dirty": None,
             "workers": 1,
             "ORTHOSAMPLE_WORKERS": os.environ.get("ORTHOSAMPLE_WORKERS", "unset")}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            name = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
            facts["caches"][name] = (index / "size").read_text().strip()
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = ["git", "-C", str(ROOT)]
            facts["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
            facts["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
    return facts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orthosample").is_dir() or not (ROOT / "configs").is_dir():
        print(f"run.py: no orthosample checkout at {ROOT} (need src/orthosample "
              "and configs/)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        work, inputs, probe, raw_setup_s, setup_s = setup(args, Path(tmp))
        if args.setup_only:
            print(json.dumps({"raw_setup_s": raw_setup_s, "setup_s": setup_s}))
            return 0
        tally = Tally()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke}
        wall = time.perf_counter()
        if args.trace:
            import orthosample
            import workloads
            from tracer import Tracer

            tracer = Tracer(orthosample)
            batches, traced_s, per_config = measure_traced(
                work, inputs, args.seconds, tally, tracer)
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = traced_s / tally.raw_busy_s() - 1.0
            for stem in workloads.CONFIG_STEMS:
                ops, secs = per_config.get(stem, (0, 0.0))
                metrics[f"experiments.{stem}.ops_per_s"] = ops / secs if secs else 0.0
            spans = OUT / f"spans-{args.workload}.npz"
            tracer.dump(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
        else:
            batches = measure(work, inputs, args.seconds, tally, probe)
            busy_s, latencies_ms = tally.scaled(probe)
            setups = [setup_s, *extra_setup_times(args)]
            record.update(setup_samples_s=setups, busy_s=busy_s,
                          latency_samples=len(latencies_ms))
            metrics = {
                "ops_per_s": tally.attempted / busy_s,
                "op_ms_p50": percentile(latencies_ms, 50),
                "op_ms_p90": percentile(latencies_ms, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    record.update(
        batches=batches, raw_busy_s=tally.raw_busy_s(),
        raw_ops_per_s=tally.attempted / tally.raw_busy_s(), wall_s=time.perf_counter() - wall,
        checks=dict(tally.checks),
        failed_frac=tally.failed / tally.attempted,
        output_digest=tally.digest.hexdigest()[:16], host=host_facts())
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
