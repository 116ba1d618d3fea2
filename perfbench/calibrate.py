"""Measure the benchmark's run-to-run spread and record it.

Usage, from the repository root::

    python3 perfbench/calibrate.py [--workload W ...]

Runs ``run.py --trace 0`` for ``run_seconds`` once per seed (seeds 1-10)
on each workload, one run at a time, and prints for every end-to-end
metric the distance between the first and third quartile of its values as
a share of their median. ``unnormalised_latency_p50_ms`` is the same
spread before the host probe's normalisation, i.e. how much of each bound
is the host. The spreads and the range of the per-run probe medians go
into ``calibration.json`` under the workload's name; ``probe_ref_ms`` there
is frozen and never rewritten, because changing it rescales every
normalised time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION = HERE / "calibration.json"
RUNS = 10


def spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({completed.returncode}):\n{completed.stderr}")
    values = {name: metric["value"] for name, metric
              in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        fields = line.split()
        if line.startswith("# unnormalised latency_p50_ms"):
            values["unnormalised_latency_p50_ms"] = float(fields[3])
        elif line.startswith("# host.probe_ms"):
            values["host.probe_ms"] = float(fields[4])
    return values


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    calibration = json.loads(CALIBRATION.read_text())
    recorded = calibration.setdefault("workloads", {})
    for workload in args.workload or names:
        runs = [run_once(workload, seed, seconds)
                for seed in range(1, RUNS + 1)]
        print(f"{workload} ({RUNS} runs of {seconds} s)")
        spreads = {}
        for name in runs[0]:
            values = [run[name] for run in runs]
            spreads[name] = round(spread(values), 4)
            print(f"  {name:30s} median {statistics.median(values):12.6g}  "
                  f"spread {spreads[name]:.4f}")
        probes = [run["host.probe_ms"] for run in runs]
        recorded[workload] = {
            "runs": RUNS, "seconds": seconds,
            "probe_range_ms": [round(min(probes), 3), round(max(probes), 3)],
            "spreads": spreads}
        CALIBRATION.write_text(json.dumps(calibration, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
