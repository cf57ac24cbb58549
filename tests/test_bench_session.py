"""``benchmarks/bench_session.py`` keeps the rows a run did not measure."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_session.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_session", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_size_run_keeps_the_other_rows(tmp_path, monkeypatch):
    bench = load_bench()
    path = tmp_path / "BENCH_session.json"
    old_rows = [{"n": 1000, "append_speedup": 2.0}, {"n": 5000, "append_speedup": 6.1}]
    path.write_text(json.dumps({"schema": bench.SCHEMA, "cases": old_rows}))
    monkeypatch.setattr(bench, "BENCH_PATH", path)
    monkeypatch.setattr(bench, "bench_size", lambda n: {"n": n, "append_speedup": 3.0})
    assert bench.main(["--sizes", "1000"]) == 0
    cases = json.loads(path.read_text())["cases"]
    assert cases == [{"n": 1000, "append_speedup": 3.0}, old_rows[1]]
