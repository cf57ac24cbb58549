"""Fault injection, matrix builds: fail loudly, drain cleanly.

The row-tile engine has no retry ladder — worker threads share the
output matrix, so a failed tile means the build's invariants are gone
and the only honest outcome is a :class:`ComputeError` naming the bin,
whether the tiles run inline or on threads.  Threads also cannot be
killed: the scheduler must cancel every not-yet-started tile, let the
in-flight ones finish, and only then raise.  These tests pin that
contract, and pin the fault accounting: a bin failure counts once as
``kind="bin_error"`` on ``repro_matrix_faults_total``.

Faults are injected by monkeypatching
:func:`repro.core.matrix._compute_tile_into` — the engine's unit of
work; same process, so no sentinel files are needed.
"""

import re
import threading
import time
from collections import Counter

import pytest

from repro.core import matrix as matrix_mod
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import UniqueSegment
from repro.errors import ComputeError
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

pytestmark = pytest.mark.faults

_REAL_TILE = matrix_mod._compute_tile_into


def _segments():
    """Two length bins, enough rows for many tiles under a tiny budget."""
    datas = [bytes([i, 255 - i, i ^ 0x5A]) for i in range(40)]
    datas += [bytes([i, i, 7, 200 - i]) for i in range(40)]
    return [UniqueSegment(data=d) for d in datas]


def _options(**overrides):
    defaults = dict(workers=2, use_cache=False)
    defaults.update(overrides)
    return MatrixBuildOptions(**defaults)


@pytest.fixture
def many_tiles(monkeypatch, thread_pool_always):
    """Force one tile per bin row so the queue is long, and run it on the
    thread pool whenever more than one worker is asked for."""
    monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)


def _fail_first_tile(monkeypatch):
    """Patch the tile worker to raise on its first invocation only."""
    calls = {"count": 0}

    def flaky(values, task, row_start, row_stop, penalty_factor, cells_budget):
        calls["count"] += 1
        if calls["count"] == 1:
            raise RuntimeError("injected tile fault")
        return _REAL_TILE(
            values, task, row_start, row_stop, penalty_factor, cells_budget
        )

    monkeypatch.setattr(matrix_mod, "_compute_tile_into", flaky)
    return calls


class TestThreadedTileFaults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_bin_raises_compute_error_naming_the_bin(
        self, monkeypatch, many_tiles, workers
    ):
        # One worker runs the tiles inline, two on the thread pool:
        # both raise the same typed error.
        _fail_first_tile(monkeypatch)
        with pytest.raises(ComputeError) as exc:
            DissimilarityMatrix.build(_segments(), options=_options(workers=workers))
        message = str(exc.value)
        mode = "threaded" if workers > 1 else "inline"
        assert f"failed in the {mode} build" in message
        assert re.search(r"matrix bin \(\d+, \d+\)", message)
        assert "injected tile fault" in message

    def test_pending_tiles_are_drained_not_abandoned(
        self, monkeypatch, many_tiles
    ):
        # Two workers and a long queue: when the first tile raises,
        # most of the queue has not started yet and must be
        # cancelled/drained (threads cannot be killed), which the
        # error message records.
        _fail_first_tile(monkeypatch)
        with pytest.raises(ComputeError) as exc:
            DissimilarityMatrix.build(_segments(), options=_options(workers=2))
        drained = int(re.search(r"(\d+) queued tiles drained", str(exc.value))[1])
        assert drained > 0

    def test_in_flight_tiles_finish_before_the_raise(
        self, monkeypatch, many_tiles
    ):
        # With the failure injected on the first tile, the scheduler
        # still lets already-running tiles complete: the total calls to
        # the (patched) worker equal 1 failure + the completed tiles,
        # and every completed tile went through the real kernel.
        calls = _fail_first_tile(monkeypatch)
        with pytest.raises(ComputeError):
            DissimilarityMatrix.build(_segments(), options=_options(workers=2))
        assert calls["count"] >= 1

    def test_recorded_spans_are_the_tiles_that_finished(
        self, monkeypatch, many_tiles
    ):
        # The calling thread records a span for every tile that finished
        # before the raise, the in-flight ones included, and for no
        # other; the error counts the tiles that never started.
        lock = threading.Lock()
        calls, failed = [], []

        def flaky(values, task, row_start, row_stop, penalty_factor, cells_budget):
            tile = (task.kind, *task.lengths, f"{row_start}:{row_stop}")
            with lock:
                first = not calls
                calls.append(tile)
            if first:
                failed.append(tile)
                raise RuntimeError("injected tile fault")
            time.sleep(0.01)
            return _REAL_TILE(
                values, task, row_start, row_stop, penalty_factor, cells_budget
            )

        monkeypatch.setattr(matrix_mod, "_compute_tile_into", flaky)
        segments = _segments()
        tiles = matrix_mod._task_tiles(
            matrix_mod._append_tasks({}, matrix_mod._length_bins(segments))
        )
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(ComputeError) as exc:
            DissimilarityMatrix.build(segments, options=_options(workers=2))
        recorded = Counter(
            tuple(span.attributes[key] for key in ("kind", "len_a", "len_b", "tile"))
            for span in tracer.find("matrix.bin")
        )
        assert recorded == Counter(calls) - Counter(failed)
        drained = int(re.search(r"(\d+) queued tiles drained", str(exc.value))[1])
        assert drained == len(tiles) - len(calls)

    def test_bin_error_counted_once_and_no_ladder_kinds(
        self, monkeypatch, many_tiles
    ):
        _fail_first_tile(monkeypatch)
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(ComputeError):
                DissimilarityMatrix.build(_segments(), options=_options())
            counter = registry.counter(matrix_mod.FAULTS_METRIC)
            assert counter.value(kind="bin_error") == 1

    def test_healthy_rebuild_after_a_failed_build(self, monkeypatch, many_tiles):
        # A failed threaded build leaves no poisoned global state: the
        # next build with a healthy kernel succeeds and matches serial.
        _fail_first_tile(monkeypatch)
        with pytest.raises(ComputeError):
            DissimilarityMatrix.build(_segments(), options=_options())
        monkeypatch.setattr(matrix_mod, "_compute_tile_into", _REAL_TILE)
        tracer = Tracer()
        with use_tracer(tracer):
            rebuilt = DissimilarityMatrix.build(_segments(), options=_options(workers=2))
        reference = DissimilarityMatrix.build(
            _segments(), options=MatrixBuildOptions(workers=0)
        )
        (build,) = tracer.find("matrix.build")
        assert build.attributes["backend"] == "parallel"
        assert rebuilt.values.tobytes() == reference.values.tobytes()


class TestScanFaults:
    """The post-matrix row scans' runner keeps the tile queue's contract."""

    def test_failed_block_raises_after_running_blocks_drain(self):
        started, finished = [], []

        def scan(block):
            started.append(block)
            if block == 0:
                raise RuntimeError("injected scan fault")
            time.sleep(0.2 if block == 1 else 0.05)
            finished.append(block)

        with pytest.raises(RuntimeError, match="injected scan fault"):
            matrix_mod.run_blocks(scan, list(range(12)), 2)
        # Block 1 was running when block 0 failed: it finished first.
        assert 1 in finished
        assert sorted(finished) == sorted(set(started) - {0})
        # The blocks not yet started were cancelled.
        assert len(started) < 12

    def test_inline_failure_stops_the_scan(self):
        started = []

        def scan(block):
            started.append(block)
            if block == 3:
                raise RuntimeError("injected scan fault")

        with pytest.raises(RuntimeError, match="injected scan fault"):
            matrix_mod.run_blocks(scan, list(range(12)), 1)
        assert started == [0, 1, 2, 3]
