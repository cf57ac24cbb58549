"""Parity contracts of the matrix execution backends.

The parallel builder is a pure optimization: every path must reproduce
the serial reference matrix exactly, on mixed-length segment sets and in
the degenerate configurations (one worker, a single length block,
permuted segment order).
"""

import numpy as np

from repro.core import matrix as matrix_mod
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import Segment, unique_segments
from repro.obs.tracer import Tracer, use_tracer

SERIAL = MatrixBuildOptions(workers=1)


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


class TestDefaultOptions:
    def test_build_stats_populated(self):
        segments = make_segments(35)
        _, record = build_record(segments, options=SERIAL)
        assert record["unique_segments"] == len(segments)
        assert record["tasks"] >= 1
        assert record["pairs"] == len(segments) * (len(segments) - 1) // 2
