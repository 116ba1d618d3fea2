"""Wall-clock benchmark of the reproduction's three serving/training paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload dlrm-hybrid --seed 1 --seconds 20 --trace 0

Workloads: ``dlrm-hybrid``, ``llm-generate``, ``oram-train`` (see
``workloads.py``). Each run sets up the workload several times (reporting
the median set-up time), runs a few untimed warm-up operations under the
full oracles, then times a fixed number of operations, one client and one
thread, closed loop. Every timed segment is followed by the host probe
(``probe.py``) and reported as ``raw * probe_ref_ms / probe_ms``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times half the
operations untraced and half with spans wrapped around the program's
layers (``spans.py``), and prints the per-layer metrics instead. The last
line of standard output is one JSON object; the exit code is 0 only when
every operation passed its oracle and the traced span tree was well formed.
The program's own telemetry stays off throughout.
"""

from __future__ import annotations

import os

# Before numpy is imported: OpenBLAS would otherwise start one thread per
# core, and the benchmark measures one client on one thread.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit) of every end-to-end metric, printed with --trace 0
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ttft_p50_ms", "ms"),
    ("tbt_p50_ms", "ms"),
    ("tbt_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1. Times
#: are host-normalised ms per operation; layers a workload bypasses read 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("dlrm.self_ms", "ms"),
    ("dlrm.mlp_ms", "ms"),
    ("embedding.scan_ms", "ms"),
    ("embedding.dhe.hash_ms", "ms"),
    ("embedding.dhe.decode_ms", "ms"),
    ("embedding.dhe.queries", "count"),
    ("embedding.scan.rows_swept", "count"),
    ("llm.self_ms", "ms"),
    ("llm.tokenize_ms", "ms"),
    ("oram.sqrt.read_ms", "ms"),
    ("oram.sqrt.reshuffle_read_ms", "ms"),
    ("oram.sqrt.reshuffles", "count"),
    ("embedding.dhe.prefill_ms", "ms"),
    ("oram.circuit.read_ms", "ms"),
    ("train.self_ms", "ms"),
    ("train.batcher_ms", "ms"),
    ("train.mlp_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("oram.lookahead.read_ms", "ms"),
    ("oram.lookahead.writeback_ms", "ms"),
    ("oram.posmap_ms", "ms"),
    ("oram.bucket_io_ms", "ms"),
    ("oram.stash_ms", "ms"),
    ("oram.access_self_ms", "ms"),
    ("oram.posmap_ops_per_access", "count"),
    ("oram.bucket_io_per_access", "count"),
    ("oram.evictions_per_access", "count"),
    ("oram.stash_peak", "count"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: ORAM layers whose self time is reported under their own name; the
#: self time of every other ``oram.*`` span (the access orchestration)
#: goes to ``oram.access_self``, and the span's whole time to its name
ORAM_INTERNALS = ("oram.posmap", "oram.bucket_io", "oram.stash")
#: percentiles tried, highest first, for the tail metrics
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WARMUP_OPS = 3
#: wall-clock budget of the measured phases, so a pathologically slow
#: commit still ends its run within three minutes
DEADLINE_S = 140.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it."""
    ordered = sorted(samples)
    for percentile in TAIL_LADDER:
        if len(ordered) * (100.0 - percentile) / 100.0 >= 10:
            return percentile, _percentile(ordered, percentile)
    return 50.0, _percentile(ordered, 50.0)


def _percentile(ordered: List[float], percentile: float) -> float:
    """Linear-interpolated percentile of already sorted samples."""
    position = (len(ordered) - 1) * percentile / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Runner:
    """Runs one workload's operations and pairs each segment with a probe."""

    def __init__(self, workload, probe, probe_ref_ms: float) -> None:
        self.workload = workload
        self.probe = probe
        self.probe_ref_ms = probe_ref_ms
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.probe_ms: List[float] = []
        #: raw (unnormalised) ms of each passed op of the last measure()
        self.raw_op_ms: List[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def factor(self, probe_ms: float) -> float:
        self.probe_ms.append(probe_ms)
        return self.probe_ref_ms / probe_ms

    def setup(self, seed: int, num_ops: int) -> List[float]:
        """Normalised seconds of each set-up repetition."""
        samples = []
        for _ in range(self.workload.setup_repeats):
            gc.collect()
            before = self.probe.run()
            start = time.perf_counter()
            self.workload.setup(seed, num_ops)
            raw = time.perf_counter() - start
            after = self.probe.run()
            samples.append(raw * self.factor((before + after) / 2.0))
        return samples

    def warm_up(self) -> None:
        for op in range(WARMUP_OPS):
            self.attempted += 1
            try:
                problems = self.workload.oracle_op(op)
            except Exception:  # noqa: BLE001 - a failed op is counted
                problems = [traceback.format_exc()]
            if problems:
                self.fail(f"warm-up op {op}: {'; '.join(problems)}")

    def measure(self, ops: range, deadline: float, recorder=None
                ) -> Tuple[List[List[float]], List[float]]:
        """Time ``ops``; returns normalised ms per segment of each passed
        op, and the normalising factor of every segment in recorder order."""
        timed: List[List[float]] = []
        factors: List[float] = []
        self.raw_op_ms = []
        gc.collect()
        # Each segment is normalised by the mean of the probes on either
        # side of it: the host's speed drifts within a second, and the two
        # neighbours track it better than either one alone.
        previous = self.probe.run()
        for op in ops:
            if time.perf_counter() > deadline:
                print(f"warning: deadline reached after {len(timed)} of "
                      f"{len(ops)} operations", file=sys.stderr)
                break
            self.attempted += 1
            segment_ms: List[float] = []
            raw_ms = 0.0
            outputs = []
            try:
                for segment in self.workload.segments(op):
                    if recorder is None:
                        start = time.perf_counter()
                        outputs.append(segment())
                        raw = time.perf_counter() - start
                    else:
                        root = len(recorder.spans)
                        with recorder.root(self.workload.root, len(factors)):
                            outputs.append(segment())
                        raw = recorder.spans[root].end - recorder.spans[root].start
                    current = self.probe.run()
                    factor = self.factor((previous + current) / 2.0)
                    previous = current
                    factors.append(factor)
                    segment_ms.append(raw * 1e3 * factor)
                    raw_ms += raw * 1e3
                problems = self.workload.check(op, outputs)
            except Exception:  # noqa: BLE001 - a failed op is counted
                problems = [traceback.format_exc()]
            if problems:
                self.fail(f"op {op}: {'; '.join(problems)}")
            else:
                timed.append(segment_ms)
                self.raw_op_ms.append(raw_ms)
        return timed, factors


def end_to_end(workload, timed: List[List[float]], setup_s: List[float]
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metrics and a note on how each tail was taken."""
    op_ms = [sum(segments) for segments in timed]
    first = workload.first_output_segments
    ttft = [sum(segments[:first]) for segments in timed]
    if any(len(segments) > first for segments in timed):
        tbt = [value for segments in timed for value in segments[first:]]
    else:
        # One output per op: its samples leave together, so the time
        # between them is the op's time shared across the batch.
        tbt = [value / workload.samples_per_op for value in op_ms]
    latency_pct, latency_tail = tail(op_ms)
    tbt_pct, tbt_tail = tail(tbt)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": statistics.median(op_ms),
        "latency_tail_ms": latency_tail,
        "throughput_per_s": workload.samples_per_op * len(op_ms)
        / (sum(op_ms) / 1e3),
        "ttft_p50_ms": statistics.median(ttft),
        "tbt_p50_ms": statistics.median(tbt),
        "tbt_tail_ms": tbt_tail,
        "peak_rss_mb":
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "latency_tail_ms": f"p{latency_pct:g} of {len(op_ms)} operations",
        "tbt_tail_ms": f"p{tbt_pct:g} of {len(tbt)} samples",
        "setup_s": f"median of {len(setup_s)} set-ups",
    }
    return metrics, notes


def oram_counts(orams) -> Dict[str, int]:
    return {
        "accesses": sum(o.stats.accesses for o in orams),
        "posmap_ops": sum(o.position_map_ops() for o in orams),
        "bucket_io": sum(o.stats.bucket_reads + o.stats.bucket_writes
                         for o in orams),
        "evictions": sum(o.stats.eviction_passes for o in orams),
    }


def is_stage(layer: str) -> bool:
    """Stages wrap ORAM internals: their metric is the whole span."""
    return layer == "llm.tokenize" or (
        layer.startswith("oram.")
        and layer not in ORAM_INTERNALS + ("oram.access_self",))


def tile_of(layer: str, root: str) -> str:
    """The self-time bucket a span of ``layer`` reports into."""
    if layer == root or layer == "llm.tokenize":
        return f"{root}.self"
    if is_stage(layer):
        return "oram.access_self"
    return layer


def per_layer(workload, recorder, factors: List[float], ops: int,
              counts_before: Dict[str, int], traced_ms: List[float],
              untraced_ms: List[float], probe_ms: List[float]
              ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced phase, plus violations of the span
    tree and of the workload's separation from the layers it bypasses."""
    from spans import self_times

    selves, problems = self_times(recorder.spans, workload.root)
    tiles: Dict[str, float] = defaultdict(float)
    whole: Dict[str, float] = defaultdict(float)
    spans_per_layer: Dict[str, int] = defaultdict(int)
    root_total = 0.0
    for span, self_s in zip(recorder.spans, selves):
        scale = 1e3 * factors[span.segment] / ops
        tiles[tile_of(span.layer, workload.root)] += self_s * scale
        whole[span.layer] += (span.end - span.start) * scale
        spans_per_layer[span.layer] += 1
        if span.parent < 0:
            root_total += (span.end - span.start) * scale
    if not math.isclose(sum(tiles.values()), root_total, rel_tol=1e-9):
        problems.append("layer self times do not add up to the traced "
                        "operation time")
    for layer, count in spans_per_layer.items():
        if layer.startswith(tuple(workload.forbidden_layers)):
            problems.append(f"{workload.name} recorded {count} {layer} "
                            "spans; it must bypass that layer")

    orams = workload.orams()
    counts = oram_counts(orams)
    delta = {key: counts[key] - counts_before[key] for key in counts}
    if "oram." in workload.forbidden_layers and any(delta.values()):
        problems.append(f"{workload.name} made ORAM accesses: {delta}")
    accesses = max(1, delta["accesses"])
    values = {
        "embedding.dhe.queries":
        recorder.counts["embedding.dhe.queries"] / ops,
        "embedding.scan.rows_swept":
        recorder.counts["embedding.scan.rows_swept"] / ops,
        "oram.sqrt.reshuffles":
        spans_per_layer["oram.sqrt.reshuffle_read"] / ops,
        "oram.posmap_ops_per_access": delta["posmap_ops"] / accesses,
        "oram.bucket_io_per_access": delta["bucket_io"] / accesses,
        "oram.evictions_per_access": delta["evictions"] / accesses,
        "oram.stash_peak": max((o.stash.peak_occupancy for o in orams),
                               default=0),
        "host.probe_ms": statistics.median(probe_ms),
        "trace.overhead_ratio":
        statistics.median(traced_ms) / statistics.median(untraced_ms),
    }
    for name, _ in PER_LAYER:
        if name not in values:
            layer = name[:-len("_ms")]
            values[name] = whole[layer] if is_stage(layer) else tiles[layer]
    return {name: values[name] for name, _ in PER_LAYER}, problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC / 'repro'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from repro import telemetry
    from probe import HostProbe
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    calibration = json.loads((HERE / "calibration.json").read_text())
    telemetry.disable()

    workload = WORKLOADS[args.workload]()
    probe = HostProbe()
    for _ in range(20):
        probe.run()
    runner = Runner(workload, probe, calibration["probe_ref_ms"])
    ops = max(2, round(args.seconds * workload.ops_per_second))
    phase_ops = max(2, ops // 2) if args.trace else ops
    total_ops = WARMUP_OPS + phase_ops * (2 if args.trace else 1)
    setup_s = runner.setup(args.seed, total_ops)
    runner.warm_up()

    deadline = started + DEADLINE_S
    untraced_end = WARMUP_OPS + phase_ops
    untraced, _ = runner.measure(range(WARMUP_OPS, untraced_end), deadline)
    metrics: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    #: failures of the run as a whole rather than of one operation
    run_problems: List[str] = []
    if args.trace:
        recorder = SpanRecorder()
        counts_before = oram_counts(workload.orams())
        workload.instrument(recorder)
        try:
            traced, factors = runner.measure(
                range(untraced_end, untraced_end + phase_ops), deadline,
                recorder)
        finally:
            recorder.uninstall()
        if traced and untraced:
            metrics, run_problems = per_layer(
                workload, recorder, factors, len(traced), counts_before,
                [sum(s) for s in traced], [sum(s) for s in untraced],
                runner.probe_ms)
    elif untraced:
        metrics, notes = end_to_end(workload, untraced, setup_s)
    if not metrics:
        run_problems.append("no operation passed, so there is nothing to "
                            "report")
    correct = runner.failed == 0 and not run_problems
    units = dict(PER_LAYER if args.trace else END_TO_END)

    probe_ms = statistics.median(runner.probe_ms)
    low, high = calibration["workloads"].get(workload.name, {}).get(
        "probe_range_ms", (0.0, math.inf))
    flag = "" if low <= probe_ms <= high else (
        "  FLAG: outside the calibration range; the host or a probe-cache "
        "effect moved it, so treat normalised times with care")
    print(f"# {workload.name} seed={args.seed} ops={len(untraced)} "
          f"probe_ref_ms={runner.probe_ref_ms}")
    print(f"# host.probe_ms raw median {probe_ms:.4f} "
          f"(calibration range {low}-{high}){flag}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:14.6g} {units[name]}{note}")
    if runner.raw_op_ms and not args.trace:
        print(f"# unnormalised latency_p50_ms "
              f"{statistics.median(runner.raw_op_ms):.6g} ms")
    error_rate = runner.failed / max(1, runner.attempted)
    print(f"# error_rate {error_rate:.4g} ({runner.failed} of "
          f"{runner.attempted} operations failed)")
    for problem in runner.problems + run_problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
