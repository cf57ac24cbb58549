"""The per-layer benchmarks' one harness (``benchmarks/harness.py``).

``--check`` compares a case's work counts exactly with the committed
row and fails a same-run ratio under its floor where the ratio's fast
side ran at least 10 ms; a run keeps the committed rows it did not
measure.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import matrix as matrix_module
from repro.obs.tracer import get_tracer

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def harness(monkeypatch):
    module = load("harness")
    # The bench scripts import the harness by name.
    monkeypatch.setitem(sys.modules, "harness", module)
    return module


def counted(harness, name, **counts):
    case = harness.Case(name)
    case.counts.update(counts)
    return case


def test_a_changed_count_fails_the_check(harness, tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    assert harness.run(path, [counted(harness, "n=10", clusters=3)], check=False) == 0
    assert harness.run(path, [counted(harness, "n=10", clusters=3)], check=True) == 0
    assert harness.run(path, [counted(harness, "n=10", clusters=4)], check=True) == 1
    assert "n=10: clusters is 4, committed 3" in capsys.readouterr().err
    assert json.loads(path.read_text())["rows"][0]["counts"] == {"clusters": 3}


def test_a_ratio_under_its_floor_fails_where_its_fast_side_ran_10ms(harness, tmp_path):
    case = harness.Case("n=10")
    case.tracer.record("oracle", wall_seconds=0.015)
    case.tracer.record("kernel", wall_seconds=0.010)
    assert case.ratio("oracle", "kernel", floor=2.0) == pytest.approx(1.5)
    assert case.failures == ["n=10: oracle/kernel is 1.50x (kernel took 0.010s), floor 2.0x"]
    path = tmp_path / "BENCH.json"
    assert harness.run(path, [case], check=False) == 1
    assert not path.exists()


def test_a_ratio_whose_fast_side_ran_under_10ms_is_only_recorded(harness, tmp_path):
    case = harness.Case("n=10")
    case.tracer.record("oracle", wall_seconds=0.009)
    case.tracer.record("kernel", wall_seconds=0.006)
    case.ratio("oracle", "kernel", floor=2.0)
    assert case.failures == []
    path = tmp_path / "BENCH.json"
    assert harness.run(path, [case], check=False) == 0
    assert json.loads(path.read_text())["rows"][0]["ratios"] == {"oracle/kernel": 1.5}


def test_one_size_run_keeps_the_other_rows(harness, tmp_path):
    path = tmp_path / "BENCH_session.json"
    committed = [counted(harness, "n=1000", clusters=2), counted(harness, "n=5000", clusters=6)]
    assert harness.run(path, committed, check=False) == 0
    assert harness.run(path, [counted(harness, "n=1000", clusters=3)], check=False) == 0
    rows = json.loads(path.read_text())["rows"]
    assert [(row["case"], row["counts"]) for row in rows] == [
        ("n=1000", {"clusters": 3}),
        ("n=5000", {"clusters": 6}),
    ]


def test_a_stage_may_not_shadow_a_span_inside_it(harness):
    case = harness.Case("n=10")
    with pytest.raises(ValueError, match="shadows"):
        case.stage("refine", lambda: get_tracer().record("refine"))


def test_every_tile_computed_twice_fails_the_check(harness, tmp_path, monkeypatch, capsys):
    bench = load("bench_session")
    path = tmp_path / "BENCH_session.json"
    assert harness.run(path, [bench.bench_size(100)], check=False) == 0
    cells = json.loads(path.read_text())["rows"][0]["counts"]["matrix.bin.cells"]

    task_tiles = matrix_module._task_tiles

    def twice(tasks):
        tiles = task_tiles(tasks)
        for task in tasks:
            task.pending *= 2
        return tiles + tiles

    monkeypatch.setattr(matrix_module, "_task_tiles", twice)
    assert harness.run(path, [bench.bench_size(100)], check=True) == 1
    assert f"n=100: matrix.bin.cells is {2 * cells}, committed {cells}" in (
        capsys.readouterr().err
    )


def test_counts_are_the_same_inline_and_on_the_thread_pool(harness, tmp_path, request):
    bench = load("bench_session")
    path = tmp_path / "BENCH_session.json"
    assert harness.run(path, [bench.bench_size(100)], check=False) == 0
    request.getfixturevalue("thread_pool_always")
    assert harness.run(path, [bench.bench_size(100)], check=True) == 0
