"""``python -m repro.bench``: id checks, the JSON writer, exit codes."""

import json
import subprocess
import sys

import pytest

from repro import bench
from repro.experiments.reporting import ExperimentResult


def stub_table(report):
    return ExperimentResult("stub", f"seed={report['seed']}", ("value",),
                            rows=[(report["value"],)])


class TestUnknownId:
    def test_exits_2_listing_known_ids(self, capsys):
        with pytest.raises(SystemExit) as caught:
            bench.main(["fig99"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'fig99'" in err
        assert ", ".join(sorted(bench.BENCHES)) in err

    def test_module_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "repro.bench", "fig99"],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "known: autoscale, cache" in result.stderr


class TestJsonWriter:
    def test_canonical_format(self):
        text = bench.dump_report({"b": 1.5, "a": [1, 2]})
        assert text == json.dumps({"b": 1.5, "a": [1, 2]}, indent=2,
                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_report_exits_naming_the_bench(
            self, value, stub_bench, tmp_path, capsys):
        stub_bench("stub", {"seed": 0, "value": value,
                            "gates": {"passed": True}}, table=stub_table)
        path = tmp_path / "stub.json"
        with pytest.raises(SystemExit) as caught:
            bench.main(["stub", "--json", str(path)])
        assert caught.value.code != 0
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'stub'" in err
        assert not path.exists()

    def test_exit_status_is_the_gate_verdict(self, stub_bench, tmp_path,
                                             capsys):
        stub_bench("stub", {"seed": 4, "value": 1.0,
                            "gates": {"passed": False}}, table=stub_table)
        path = tmp_path / "stub.json"
        assert bench.main(["stub", "--seed", "4", "--json", str(path)]) == 1
        assert "seed=4" in capsys.readouterr().out
        assert json.loads(path.read_text())["gates"] == {"passed": False}
