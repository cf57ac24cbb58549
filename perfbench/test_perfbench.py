"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Every workload runs at the "tiny" input scale through the same code as
a measured run, untraced and traced, in a subprocess exactly as the
benchmark command is invoked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import SpanRecorder, layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(*extra: str, cwd: Path = ROOT, script: Path | None = None):
    script = script or ROOT / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--scale", "tiny", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_result(workload: str, trace: int) -> dict:
    result = result_of(
        run_benchmark("--workload", workload, "--seed", "3", "--trace", str(trace))
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def units_of(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run(workload):
    metrics = tiny_result(workload, 0)["metrics"]
    printed = {name: m["unit"] for name, m in metrics.items()}
    assert printed == units_of(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run(workload):
    metrics = tiny_result(workload, 1)["metrics"]
    printed = {name: m["unit"] for name, m in metrics.items()}
    assert printed == units_of(BENCHMARK["per_layer"])
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["trace.layer_coverage"] >= 0.95
    assert values["trace.overhead_share"] > 0
    called = "session.append" if workload == "serve-stream" else "core.matrix"
    assert values[f"{called}.wall_s"] > 0


@pytest.mark.parametrize("workload", ["stateful-pcap", "serve-stream"])
def test_injected_mismatch_is_a_failed_op_not_a_crash(workload):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--trace", "0",
                         "--inject-mismatch")
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == 1
    share = result["metrics"]["ops_ok_share"]["value"]
    assert share == pytest.approx(1 - 1 / result["attempted"])
    assert "# FAILED" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "field-pcap", "--seed", "3", "--trace", "0",
                         cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_and_totals_cover_layers():
    recorder = SpanRecorder()
    with recorder.span("op", "o1"):
        with recorder.span("core.matrix", "o1"):
            pass
        with recorder.span("core.cluster", "o1"):
            pass
    op, matrix, cluster = recorder.spans
    assert matrix["parent"] == cluster["parent"] == op["id"]
    assert recorder.self_seconds(op) == pytest.approx(
        op["wall_s"] - matrix["wall_s"] - cluster["wall_s"]
    )
    totals = layer_totals(recorder, ("core.matrix", "core.cluster", "msgtypes"))
    assert totals["op_wall_s"] == op["wall_s"]
    assert totals["covered_s"] == pytest.approx(matrix["wall_s"] + cluster["wall_s"])
    assert totals["layers"]["msgtypes"]["calls"] == 0
    assert totals["layers"]["core.matrix"]["calls"] == 1
