"""Smoke test for the benchmark harness: every workload at tiny size, with
tracing off and on.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
# Layers the prediction table in README.md says a workload never calls.
NEVER_CALLED = {
    "mc_tables": ("whittle", "cli"),
    "long_series": ("models", "whittle", "cli", "experiments"),
    "model_fit": ("models", "variance", "equality", "distributions", "experiments"),
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["checks"] == {}
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    counts = [k for k, v in first.items() if v["unit"] in ("count", "flop", "B")]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    for layer in NEVER_CALLED[workload]:
        assert first[f"{layer}.calls"]["value"] == 0, layer
    called = [k for k in first if k.endswith(".calls") and first[k]["value"] > 0]
    assert called


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("long_series", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
