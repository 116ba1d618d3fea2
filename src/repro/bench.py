"""``python -m repro.bench <id> [--seed N] [--json PATH]`` — every gated bench.

Each extension proves its share of the paper's indistinguishability claim
with a seeded, gated bench. :data:`BENCHES` maps a bench id to its
``(run, table)`` pair:

* ``run(seed=..., **sizing) -> report`` builds the JSON-stable report
  (sizing keywords such as ``num_requests`` are for tests);
* ``table(report) -> ExperimentResult`` renders it for humans.

The CLI prints the table, optionally writes the report as JSON
(``indent=2, sort_keys=True``, NaN/inf refused) and exits 0 iff every gate
passed. The experiment registry derives its entries for these ids from
the same dict, so both CLIs print the same table. The report holds only
seed-determined quantities: two runs with the same seed write
byte-identical files. Wall-clock lives in ``perfbench/``.

The ids are the keys of :data:`BENCHES`; the README lists them with
one line each.
"""

from __future__ import annotations

import argparse
import json
from importlib import import_module
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.reporting import ExperimentResult

Run = Callable[..., Dict[str, object]]
Table = Callable[[Dict[str, object]], ExperimentResult]


def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported on first call (bench imports are heavy)."""
    def call(*args, **kwargs):
        return getattr(import_module(module), name)(*args, **kwargs)

    return call


def _entry(module: str, run: str) -> Tuple[Run, Table]:
    return _lazy(module, run), _lazy(module, "table")


BENCHES: Dict[str, Tuple[Run, Table]] = {
    "autoscale": _entry("repro.cluster.autoscale.sim", "run_autoscale"),
    "cache": _entry("repro.cache.bench", "run_bench"),
    "chaos": _entry("repro.resilience.chaos", "run_chaos"),
    "cluster": _entry("repro.cluster.sim", "run_cluster"),
    "lazy": _entry("repro.lazy.bench", "run_bench"),
    "llm": _entry("repro.llm.bench", "run_bench"),
    "migrate": _entry("repro.cluster.migrate", "run_migration"),
    "train": _entry("repro.training.bench", "run_bench"),
}


def unknown_ids_message(unknown: Sequence[str], known: Sequence[str]) -> str:
    """The one-line complaint both CLIs exit with on an unknown id."""
    return (f"unknown id {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}\n")


def gate_verdicts(gates: Dict[str, bool]) -> str:
    """``"name PASS, name FAIL, ..."`` for every gate but ``passed``."""
    return ", ".join(f"{name} {'PASS' if ok else 'FAIL'}"
                     for name, ok in gates.items() if name != "passed")


def dump_report(report: Dict[str, object]) -> str:
    """The report's canonical JSON text (raises ValueError on NaN/inf)."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one gated bench; exit 0 iff every gate passes.")
    parser.add_argument("id", help=f"one of: {', '.join(sorted(BENCHES))}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH",
                        help="write the deterministic bench report")
    args = parser.parse_args(argv)
    if args.id not in BENCHES:
        parser.exit(2, unknown_ids_message([args.id], BENCHES))

    run, table = BENCHES[args.id]
    report = run(seed=args.seed)
    print(table(report).render())
    if args.json:
        try:
            text = dump_report(report)
        except ValueError as error:
            parser.exit(1, f"bench {args.id!r}: report is not finite JSON "
                           f"({error})\n")
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if report["gates"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
