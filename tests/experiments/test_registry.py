"""Registry wiring + fast paper-shape assertions for cheap experiments.

The slow experiments (real training, full grids) are exercised by the
benchmark harness; here each cheap experiment runs once with reduced
parameters and its core paper claim is asserted.
"""

import json

import numpy as np
import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    main,
    run_experiment,
)
from repro.experiments.reporting import ExperimentResult

ALL_IDS = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
           "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1",
           "table2", "table5", "table6", "table7", "table8",
           "llm-footprint", "autoscale", "cache", "chaos", "cluster",
           "migrate", "lazy", "train", "llm"}


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        assert set(EXPERIMENTS) == ALL_IDS

    def test_list_sorted(self):
        assert list_experiments() == sorted(ALL_IDS)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_bench_ids_derive_from_the_bench_dict(self, monkeypatch):
        from repro import bench

        calls = []

        def run(**kwargs):
            calls.append(kwargs)
            return {"seed": kwargs["seed"]}

        def table(report):
            return ExperimentResult("chaos", f"seed={report['seed']}",
                                    ("a",))

        assert set(bench.BENCHES) <= set(EXPERIMENTS)
        monkeypatch.setitem(bench.BENCHES, "chaos", (run, table))
        result = run_experiment("chaos", seed=3, num_requests=8)
        assert calls == [{"seed": 3, "num_requests": 8}]
        assert result.title == "seed=3"

    def test_runs_tagged_in_telemetry(self):
        from repro.telemetry.runtime import use_registry

        with use_registry() as registry:
            run_experiment("fig2")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["experiments.runs_total"] == 1.0
        assert snapshot["counters"]["experiments.fig2.runs_total"] == 1.0
        assert "span.experiment.run.seconds" in snapshot["histograms"]


class TestCli:
    def test_json_dump_bundles_results_and_telemetry(self, tmp_path,
                                                     capsys):
        path = tmp_path / "run.json"
        assert main(["fig2", "--json", str(path)]) == 0
        assert "fig2" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        (result,) = payload["results"]
        assert result["experiment_id"] == "fig2"
        assert result["headers"] and result["rows"]
        assert payload["counters"]["experiments.fig2.runs_total"] == 1.0
        assert payload["spans"]["recorded"] >= 1

    def test_cli_does_not_clobber_global_registry(self, tmp_path, capsys):
        from repro.telemetry.runtime import get_registry

        before = get_registry()
        main(["fig2", "--json", str(tmp_path / "run.json")])
        capsys.readouterr()
        assert get_registry() is before


class TestFig2:
    def test_taxonomy_trade_off(self):
        result = run_experiment("fig2")
        rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
        assert rows["DHE"]["normalized_latency"] > 1.0
        assert rows["DHE"]["memory_mb"] < 0.05 * rows["table lookup"]["memory_mb"]
        assert rows["DHE"]["secure"] == "yes"
        assert rows["table lookup"]["secure"] == "no"


class TestTable2:
    def test_security_matrix_verdicts(self):
        result = run_experiment("table2")
        verdicts = dict(zip(result.column("technique"),
                            result.column("secret_dependent_data_access")))
        assert "NOT protected" in verdicts["Table: non-secure"]
        for technique in ("Table: ORAM", "Table: Linear Scan", "DHE (hash)"):
            assert "protected" in verdicts[technique]
            assert "NOT" not in verdicts[technique]


class TestFig3:
    def test_attack_succeeds_and_defence_flattens(self):
        result = run_experiment("fig3", repeats=3)
        assert "SUCCESS" in result.notes
        vulnerable = result.column("latency_vulnerable_cycles")
        assert max(vulnerable) > 2 * sorted(vulnerable)[-2]


class TestFig4:
    def test_paper_shape(self):
        result = run_experiment("fig4", dims=(64,),
                                sizes=(100, 10_000, 10_000_000))
        scan = result.column("linear_scan_ms")
        dhe = result.column("dhe_uniform_ms")
        circuit = result.column("circuit_oram_ms")
        # Small table: scan wins; large: scan loses to everything.
        assert scan[0] < dhe[0] and scan[0] < circuit[0]
        assert scan[-1] > dhe[-1] and scan[-1] > circuit[-1]
        # DHE Uniform flat across sizes.
        assert dhe[0] == dhe[-1]


class TestFig5:
    def test_dhe_wins_large_batches(self):
        result = run_experiment("fig5", dims=(1024,), batches=(1, 256))
        rows = {(r[0], r[1]): r for r in result.rows}
        headers = list(result.headers)
        circuit = headers.index("circuit_oram_ms")
        dhe = headers.index("dhe_ms")
        large = rows[(1024, 256)]
        assert large[dhe] < large[circuit]


class TestFig6:
    def test_threshold_trends(self):
        result = run_experiment("fig6", batches=(1, 128),
                                threads_list=(1, 16))
        values = {(b, t): v for b, t, v in result.rows}
        assert values[(128, 1)] < values[(1, 1)]
        assert values[(1, 16)] > values[(1, 1)]


class TestFig10:
    def test_optimizations_reduce_latency(self):
        result = run_experiment("fig10", sizes=(1_000_000,))
        for row in result.rows:
            original, gramine, opt = row[2:]
            assert original > gramine > opt


class TestFig11:
    def test_profiled_split_near_optimal(self):
        result = run_experiment("fig11")
        latencies = result.column("latency_ms")
        flags = result.column("is_profiled_split")
        best = int(np.argmin(latencies))
        profiled = flags.index("<-- profiled")
        assert abs(best - profiled) <= 1  # paper: within +-1 table


class TestFig12:
    def test_hybrid_advantage_grows_with_batch(self):
        result = run_experiment("fig12", batches=(8, 128))
        speedups = result.column("hybrid_speedup_vs_circuit")
        # per dataset: later batch's speed-up exceeds earlier
        assert speedups[1] > speedups[0]
        assert speedups[3] > speedups[2]


class TestTable7:
    def test_paper_ordering(self):
        result = run_experiment("table7")
        latencies = dict(zip(result.column("technique"),
                             result.column("terabyte_ms")))
        assert latencies["index_lookup"] < latencies["hybrid_varied"]
        assert latencies["hybrid_varied"] < latencies["circuit_oram"]
        assert latencies["circuit_oram"] < latencies["path_oram"]
        assert latencies["path_oram"] < latencies["linear_scan"]

    def test_hybrid_speedup_in_paper_range(self):
        result = run_experiment("table7")
        speedups = dict(zip(result.column("technique"),
                            result.column("terabyte_vs_circuit")))
        assert 1.5 < speedups["hybrid_varied"] < 4.5  # paper: 2.28x


class TestTable6:
    def test_footprint_story(self):
        result = run_experiment("table6")
        pct = dict(zip(result.column("representation"),
                       result.column("terabyte_pct")))
        assert pct["tree_oram"] > 250  # paper: 336.9%
        assert pct["dhe_varied"] < 5
        assert pct["hybrid_varied"] <= pct["dhe_uniform"]


class TestTable8:
    def test_meta_scale_story(self):
        result = run_experiment("table8")
        memory = dict(zip(result.column("technique"),
                          result.column("memory_mb")))
        speedup = dict(zip(result.column("technique"),
                           result.column("vs_circuit")))
        # paper: hybrid varied 2.4x faster, >2500x smaller than tables
        assert speedup["hybrid_varied"] > 1.5
        assert memory["index_lookup"] / memory["hybrid_varied"] > 250


class TestFig15:
    def test_llm_story(self):
        result = run_experiment("fig15", batches=(1, 12))
        rows = {(r[0], r[1]): dict(zip(result.headers, r))
                for r in result.rows}
        # DHE beats circuit on prefill at every batch size.
        assert rows[(1, "prefill")]["dhe_vs_circuit"] > 1.0
        assert rows[(12, "prefill")]["dhe_vs_circuit"] > 1.0
        # Batched decode favours DHE; batch-1 decode is a near-tie.
        assert rows[(12, "decode")]["dhe_vs_circuit"] > 1.0
        assert abs(rows[(1, "decode")]["dhe_vs_circuit"] - 1.0) < 0.1


class TestLlmFootprint:
    def test_paper_numbers(self):
        result = run_experiment("llm-footprint")
        parts = dict(zip(result.column("scheme"),
                         result.column("embedding_part_mb")))
        assert parts["table"] == pytest.approx(196.3, rel=0.03)
        assert parts["oram (circuit)"] == pytest.approx(513.6, rel=0.1)
        assert parts["dhe (+tied head table)"] == pytest.approx(56.0,
                                                                rel=0.1)


class TestCluster:
    def test_scaling_story_and_gates(self, bench_report, stub_bench):
        stub_bench("cluster", bench_report("cluster", 0, num_requests=96))
        result = run_experiment("cluster", num_requests=96)
        capacities = [float(c) for c in result.column("capacity_rps")]
        nodes = [int(n) for n in result.column("nodes")]
        # capacity grows with node count; every gate reported PASS
        assert capacities[nodes.index(4)] > 3 * capacities[nodes.index(1)]
        assert "FAIL" not in result.notes
        assert "failover" in result.notes


class TestMigrate:
    def test_migration_story_and_gates(self, bench_report, stub_bench):
        stub_bench("migrate", bench_report("migrate", 0, num_requests=96))
        result = run_experiment("migrate", num_requests=96)
        moved = [int(m) for m in result.column("moved")]
        bounds = [int(b) for b in result.column("bound")]
        shed = [int(s) for s in result.column("shed")]
        assert all(m <= b for m, b in zip(moved, bounds))
        assert all(s == 0 for s in shed)
        assert "FAIL" not in result.notes
        assert "hot-first anti-pattern is caught" in result.notes


class TestTable1:
    def test_complexity_exponents(self):
        result = run_experiment("table1")
        exponents = dict(zip(result.column("technique"),
                             result.column("fitted_exponent")))
        assert exponents["linear scan"] == pytest.approx(1.0, abs=0.25)
        assert exponents["DHE"] == pytest.approx(2.0, abs=0.25)
        assert 0.3 < exponents["tree ORAM"] < 1.3


class TestLlm:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        """One registry-CLI run of the llm bench, telemetry included."""
        path = tmp_path_factory.mktemp("llm") / "llm.json"
        assert main(["llm", "--json", str(path)]) == 0
        return json.loads(path.read_text())

    def test_pipeline_story_and_gates(self, payload):
        (result,) = payload["results"]
        columns = dict(zip(result["headers"], zip(*result["rows"])))
        tok = [int(n) for n in columns["tok"]]
        dec = [int(n) for n in columns["dec"]]
        # tokenize starts overprovisioned and sheds a node in the warm-up;
        # decode grows through the ramp; every gate reported PASS
        assert min(tok) < tok[0]
        assert dec[-1] > dec[0]
        assert "FAIL" not in result["notes"]
        assert "hot-load-chasing controller" in result["notes"]

    def test_json_includes_per_stage_telemetry(self, payload):
        (result,) = payload["results"]
        assert result["experiment_id"] == "llm"
        assert result["headers"] == ["tick", "rate", "tok", "pre", "dec",
                                     "decode_p99_ms", "decisions"]
        counters = payload["counters"]
        # the per-stage telemetry snapshot rides along in the dump
        for stage in ("tokenize", "prefill", "decode"):
            assert counters[f"llm.stage.{stage}.requests_total"] > 0
            assert counters[f"llm.stage.{stage}.batches_total"] > 0
        assert counters["llm.pool.tokenize.scale_down_events_total"] >= 1
        assert counters["llm.pool.decode.scale_up_events_total"] >= 1
        assert counters["experiments.llm.runs_total"] == 1.0
        assert payload["gauges"]["llm.pool.decode.nodes"] >= 2.0
