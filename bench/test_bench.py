"""The benchmark's own tests, at a tiny size.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _units(kind):
    return {m["name"]: m["unit"] for m in run.METRICS[kind]}


def test_suite_reports_every_end_to_end_metric_with_its_unit(capsys):
    report, result = run.measure("suite-traced", 0, 0, trace=0, size=1)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 7 * report["passes"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    run.emit(report, result)
    lines = capsys.readouterr().out.splitlines()
    for name, unit in _units("end_to_end").items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in lines[:-1])
    assert set(json.loads(lines[-1])) == {"correct", "attempted", "failed", "metrics"}


def test_suite_traced_pass_reports_every_layer_metric_and_same_digest():
    report, result = run.measure("suite-traced", 0, 0, trace=1, size=1)
    assert result["correct"]
    assert report["traced_passes"] >= 1
    assert len(report["digests"]) == 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["engine.events"] > 0
    assert values["adversary.forged_rreps"] > 0
    assert values["outputs.trace_lines"] > 0
    assert values["scenario.configs_per_run"] > 1


def test_failure_rule_flags_only_seed_65_debh():
    report, result = run.measure("paper30-attack", 65, 0, trace=0, size=1)
    assert result["correct"]
    assert result["attempted"] == 2 * report["passes"]
    assert result["failed"] == report["passes"]
    assert report["failures"] == [
        "paper30-s65-debh: condemned honest nodes [4, 25]"]


def test_mobile_traced_and_untraced_digests_match():
    report, result = run.measure("mobile-300", 0, 0, trace=1, size=30)
    assert result["correct"]
    assert result["failed"] == 0
    assert report["traced_passes"] >= 1 and report["passes"] > report["traced_passes"]
    assert len(report["digests"]) == 1
    assert result["metrics"]["topology.neighbors_calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mobile-300",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
