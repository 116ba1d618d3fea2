"""Smoke test of the benchmark: a few operations of every workload.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for one second (a handful of operations) with and
without tracing; the test checks the exit code, that every oracle passed,
and that the printed metric names and units are exactly the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_declared_metrics(workload, trace):
    completed = run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_traced_run_separates_workloads():
    by_workload = {}
    for workload in ("dlrm-hybrid", "oram-train"):
        completed = run(workload, 1)
        assert completed.returncode == 0, completed.stderr
        metrics = json.loads(completed.stdout.strip().splitlines()[-1])[
            "metrics"]
        by_workload[workload] = {k: v["value"] for k, v in metrics.items()}
    dlrm, train = by_workload["dlrm-hybrid"], by_workload["oram-train"]
    assert dlrm["embedding.dhe.hash_ms"] > 0
    assert all(value == 0 for name, value in dlrm.items()
               if name.startswith("oram."))
    assert train["oram.posmap_ms"] > 0
    assert all(value == 0 for name, value in train.items()
               if name.startswith("embedding.dhe"))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("dlrm-hybrid", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
