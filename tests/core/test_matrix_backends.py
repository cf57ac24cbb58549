"""Parity contracts of the matrix execution backends.

The parallel builder and the on-disk cache are pure optimizations: every
path must reproduce the serial reference matrix exactly, on mixed-length
segment sets and in the degenerate configurations (one worker, a single
length block, permuted segment order).
"""

import numpy as np
import pytest

from repro.core import matrix as matrix_mod
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.matrixcache import cache_counters, default_cache_dir, matrix_cache_key
from repro.core.segments import Segment, unique_segments
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

SERIAL = MatrixBuildOptions(workers=1, use_cache=False)


def make_segments(count: int, lengths=(3, 5, 8), seed: int = 13):
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = lengths[int(rng.integers(0, len(lengths)))]
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(sorted(datas))]
    )


def build_record(segments, **kwargs):
    """A build and its ``matrix.build`` span's attributes."""
    tracer = Tracer()
    with use_tracer(tracer):
        matrix = DissimilarityMatrix.build(segments, **kwargs)
    (span,) = tracer.find("matrix.build")
    return matrix, span.attributes


def threaded(segments, **kwargs):
    """A two-worker build that must have run on the thread pool."""
    matrix, record = build_record(
        segments, options=MatrixBuildOptions(workers=2), **kwargs
    )
    assert record["backend"] == "parallel" and record["workers"] == 2
    return matrix, record


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Each test counts cache traffic in a registry of its own."""
    with use_metrics(MetricsRegistry()):
        yield


class TestParallelParity:
    def test_matches_serial_on_mixed_lengths(self, thread_pool_always):
        segments = make_segments(120)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        parallel, _ = threaded(segments)
        assert np.allclose(serial.values, parallel.values)
        assert np.array_equal(serial.values, parallel.values)

    def test_one_worker_degenerates_to_serial(self, thread_pool_always):
        segments = make_segments(40)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        one, record = build_record(segments, options=MatrixBuildOptions(workers=1))
        assert record["backend"] == "serial"
        assert np.array_equal(serial.values, one.values)

    def test_single_length_block(self, thread_pool_always, monkeypatch):
        segments = make_segments(60, lengths=(4,))
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        # One length → one work item, split into row tiles once the
        # budget is below a row block.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 1024)
        parallel, record = threaded(segments)
        assert record["tasks"] == 1 and record["tiles"] > 1
        assert np.array_equal(serial.values, parallel.values)

    def test_below_threshold_stays_serial(self):
        # Four workers, but a few thousand cells of work: no pool.
        segments = make_segments(30)
        _, record = build_record(segments, options=MatrixBuildOptions(workers=4))
        assert record["backend"] == "serial" and record["workers"] == 1

    def test_nondefault_penalty_factor(self, thread_pool_always):
        segments = make_segments(90)
        serial = DissimilarityMatrix.build(segments, penalty_factor=0.2, options=SERIAL)
        parallel, _ = threaded(segments, penalty_factor=0.2)
        assert np.array_equal(serial.values, parallel.values)


class TestCacheRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        segments = make_segments(80)
        serial = DissimilarityMatrix.build(segments, options=SERIAL)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        cold, cold_record = build_record(segments, options=options)
        warm, warm_record = build_record(segments, options=options)
        assert not cold_record["cache_hit"]
        assert warm_record["cache_hit"] and warm_record["backend"] == "cache"
        assert np.array_equal(serial.values, cold.values)
        assert np.array_equal(serial.values, warm.values)
        assert cache_counters() == {"hits": 1, "misses": 1, "stores": 1}

    def test_hit_is_order_independent(self, tmp_path):
        """The key is over *sorted* values, so a permuted segment list
        hits the same entry and gets correctly permuted rows back."""
        segments = make_segments(70)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        DissimilarityMatrix.build(segments, options=options)
        shuffled = list(segments)
        np.random.default_rng(3).shuffle(shuffled)
        warm, record = build_record(shuffled, options=options)
        reference = DissimilarityMatrix.build(shuffled, options=SERIAL)
        assert record["cache_hit"]
        assert np.array_equal(reference.values, warm.values)

    def test_penalty_factor_changes_the_key(self, tmp_path):
        segments = make_segments(30)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        DissimilarityMatrix.build(segments, options=options)
        _, record = build_record(segments, penalty_factor=0.1, options=options)
        assert not record["cache_hit"]
        assert cache_counters()["misses"] == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        segments = make_segments(25)
        options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
        cold = DissimilarityMatrix.build(segments, options=options)
        entry = next(tmp_path.glob("matrix-*.npz"))
        entry.write_bytes(b"not an npz")
        rebuilt, record = build_record(segments, options=options)
        assert not record["cache_hit"]
        assert np.array_equal(cold.values, rebuilt.values)

    def test_cache_key_is_deterministic(self):
        datas = [b"\x01\x02", b"\x03\x04\x05"]
        assert matrix_cache_key(datas, 0.6) == matrix_cache_key(iter(datas), 0.6)
        assert matrix_cache_key(datas, 0.6) != matrix_cache_key(datas, 0.5)

    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        segments = make_segments(20)
        options = MatrixBuildOptions(workers=1, use_cache=True)
        DissimilarityMatrix.build(segments, options=options)
        assert list((tmp_path / "custom").glob("matrix-*.npz"))


class TestDefaultOptions:
    def test_build_stats_populated(self):
        segments = make_segments(35)
        _, record = build_record(segments, options=SERIAL)
        assert record["unique_segments"] == len(segments)
        assert record["tasks"] >= 1
        assert record["pairs"] == len(segments) * (len(segments) - 1) // 2
