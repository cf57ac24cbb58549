"""Parallelism parity: the threaded bin scheduler is a pure optimization.

The threaded run of the row-tile queue writes disjoint tiles of the
shared output matrix from a thread pool.  Its contract is *bit
identity*: for any segment set, worker count, value dtype, and storage
mode, the produced bytes are exactly the inline run's — not close,
identical.  The tests here pin that contract:

- hypothesis property tests over ragged/equal/duplicate-length segment
  sets, workers in {1, 2, 4};
- a dtype × storage × workers grid on a fixed ragged corpus;
- a determinism run (same trace, three worker counts, raw-byte compare);
- tiny-tile runs (budget monkeypatched down) so one bin spans many
  tiles and the cross-tile mirror writes are exercised;
- the tiles' ``cells`` counts, which sum to every cell of a build and
  every new cell of an append, so each cell is written exactly once;
- the workers convention shared by the library and both CLIs
  (``None`` ⇒ all cores, ``0`` ⇒ serial, ``N >= 1`` ⇒ exactly N,
  negative ⇒ rejected);
- the threaded build's observability surface (``matrix.bin`` spans
  with worker/tile/queue-wait tags, one ``repro_span_seconds`` sample
  per tile).

The golden-trace corpus rides through the threaded backend in
``tests/golden/test_golden_traces.py::test_golden_trace_worker_stability``.
"""

import argparse
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cliopts import backend_parent
from repro.core import matrix as matrix_mod
from repro.core.matrix import (
    DTYPE_FLOAT32,
    DTYPE_FLOAT64,
    STORAGE_MEMMAP,
    STORAGE_RAM,
    AppendableMatrix,
    DissimilarityMatrix,
    MatrixBuildOptions,
)
from repro.core.pipeline import ClusteringConfig
from repro.core.segments import Segment, unique_segments
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import SPAN_SECONDS_METRIC, Tracer, use_tracer


def as_unique_segments(datas):
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)],
        min_length=1,
    )


def serial_build(datas, **kwargs):
    built = DissimilarityMatrix.build(
        as_unique_segments(datas),
        options=MatrixBuildOptions(workers=0, use_cache=False, **kwargs),
    )
    assert built.stats.backend == "serial"
    return built


def threaded_build(datas, workers, **kwargs):
    options = MatrixBuildOptions(
        workers=workers, use_cache=False, parallel_threshold=0, **kwargs
    )
    return DissimilarityMatrix.build(as_unique_segments(datas), options=options)


def make_ragged_datas(count=60, seed=17, max_length=12):
    """Deterministic unique segments spread over many lengths."""
    rng = np.random.default_rng(seed)
    datas, seen = [], set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        data = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
        if data not in seen:
            seen.add(data)
            datas.append(data)
    return datas


#: Ragged, equal, and duplicate-length sets all fall out of this one
#: strategy: lengths repeat freely, only the byte values are unique.
segment_sets = st.lists(
    st.binary(min_size=1, max_size=24), min_size=2, max_size=14, unique=True
)


class TestThreadedParity:
    @settings(max_examples=30, deadline=None)
    @given(datas=segment_sets, workers=st.sampled_from([1, 2, 4]))
    def test_bit_identical_to_serial(self, datas, workers):
        reference = serial_build(datas)
        built = threaded_build(datas, workers)
        assert built.values.dtype == reference.values.dtype
        assert built.values.tobytes() == reference.values.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(datas=segment_sets)
    def test_float32_bit_identical_to_serial(self, datas):
        reference = serial_build(datas, dtype=DTYPE_FLOAT32)
        built = threaded_build(datas, 4, dtype=DTYPE_FLOAT32)
        assert built.values.dtype == np.float32
        assert built.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("dtype", [DTYPE_FLOAT64, DTYPE_FLOAT32])
    @pytest.mark.parametrize("storage", [STORAGE_RAM, STORAGE_MEMMAP])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dtype_storage_workers_grid(self, dtype, storage, workers):
        datas = make_ragged_datas(count=50, seed=23)
        reference = serial_build(datas, dtype=dtype)
        built = threaded_build(datas, workers, dtype=dtype, storage=storage)
        assert built.stats.backend == "parallel"
        assert built.stats.tile_count > 0
        assert built.stats.workers == workers
        assert np.asarray(built.values).tobytes() == reference.values.tobytes()

    def test_equal_length_only_set(self):
        rng = np.random.default_rng(3)
        datas = list({bytes(rng.integers(0, 256, size=6, dtype=np.uint8)): None
                      for _ in range(40)})
        reference = serial_build(datas)
        built = threaded_build(datas, 4)
        # A single equal-length bin still threads (tiles, not blocks,
        # are the unit of work).
        assert built.stats.backend == "parallel"
        assert built.values.tobytes() == reference.values.tobytes()

    def test_many_tiles_per_bin(self, monkeypatch):
        # Shrink the tile budget so single bins split into many tiles:
        # "same" tiles each write full rows of their bin, the others
        # their rows and the mirror of them.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)
        datas = make_ragged_datas(count=70, seed=29, max_length=8)
        reference = serial_build(datas)
        built = threaded_build(datas, 4)
        assert built.stats.tile_count > built.stats.task_count
        assert built.values.tobytes() == reference.values.tobytes()

    def test_determinism_across_worker_counts(self):
        datas = make_ragged_datas(count=80, seed=31)
        reference = serial_build(datas)
        fingerprints = set()
        for workers in (2, 3, 4):
            built = threaded_build(datas, workers)
            assert built.stats.backend == "parallel"
            fingerprints.add(built.values.tobytes())
        assert fingerprints == {reference.values.tobytes()}


class TestWorkersConvention:
    """None ⇒ all cores, 0 ⇒ serial, N ⇒ exactly N — everywhere."""

    def test_effective_workers_resolution(self):
        assert MatrixBuildOptions(workers=None).effective_workers() == (
            os.cpu_count() or 1
        )
        assert MatrixBuildOptions(workers=0).effective_workers() == 1
        assert MatrixBuildOptions(workers=1).effective_workers() == 1
        assert MatrixBuildOptions(workers=5).effective_workers() == 5

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            MatrixBuildOptions(workers=-1)

    def test_workers_zero_forces_serial_past_the_threshold(self):
        datas = make_ragged_datas(count=40, seed=43)
        built = DissimilarityMatrix.build(
            as_unique_segments(datas),
            options=MatrixBuildOptions(
                workers=0, use_cache=False, parallel_threshold=0
            ),
        )
        assert built.stats.backend == "serial"
        assert built.stats.tile_count == 0

    def _parse(self, *argv):
        parser = argparse.ArgumentParser(parents=[backend_parent()])
        return parser.parse_args(list(argv))

    def test_cli_workers_zero_means_serial(self):
        args = self._parse("--workers", "0")
        config = ClusteringConfig.from_args(args)
        assert config.matrix_options.workers == 0
        assert config.matrix_options.effective_workers() == 1

    def test_cli_workers_default_means_all_cores(self):
        args = self._parse()
        options = ClusteringConfig.from_args(args).matrix_options
        assert options.workers is None
        assert options.effective_workers() == (os.cpu_count() or 1)


class TestThreadedObservability:
    def test_bin_spans_and_queue_metrics(self):
        datas = make_ragged_datas(count=50, seed=47)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            built = threaded_build(datas, 2)
        assert built.stats.backend == "parallel"
        assert built.stats.tile_count > 0

        bins = tracer.find("matrix.bin")
        assert len(bins) == built.stats.tile_count
        for span in bins:
            assert span.attributes["worker"].startswith("repro-matrix")
            start, _, stop = span.attributes["tile"].partition(":")
            assert int(start) < int(stop)
            assert span.attributes["queue_seconds"] >= 0.0
            assert span.attributes["kind"] in ("same", "cross")

        durations = registry.histogram(SPAN_SECONDS_METRIC).snapshot(
            span="matrix.bin", status="ok"
        )
        assert durations["count"] == built.stats.tile_count
        assert durations["sum"] == pytest.approx(
            sum(span.wall_seconds for span in bins), abs=1e-9
        )

        builds = tracer.find("matrix.build")
        assert len(builds) == 1
        attributes = builds[0].attributes
        assert attributes["workers"] == 2
        assert attributes["tiles"] == built.stats.tile_count
        assert attributes["backend"] == "parallel"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_bin_spans_cover_every_pair_and_count_windows(self, workers):
        # Low-entropy segments of many lengths, so windows recur.
        rng = np.random.default_rng(59)
        datas = list({
            bytes(rng.integers(0, 3, size=int(rng.integers(1, 16)), dtype=np.uint8)): None
            for _ in range(120)
        })
        tracer = Tracer()
        with use_tracer(tracer):
            built = threaded_build(datas, workers)
        count = len(built)
        bins = tracer.find("matrix.bin")
        assert sum(span.attributes["pairs"] for span in bins) == count * (count - 1) // 2
        cross = [span for span in bins if span.attributes["kind"] == "cross"]
        assert cross
        for span in cross:
            attributes = span.attributes
            assert 1 <= attributes["unique_windows"] <= attributes["windows"]
            assert attributes["len_a"] < attributes["len_b"]
        assert sum(s.attributes["unique_windows"] for s in cross) < sum(
            s.attributes["windows"] for s in cross
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_tiles_write_every_cell_once(self, monkeypatch, workers):
        # Ragged lengths under a small budget, so bins split into several
        # tiles; lengths 20 and 30 are held by one segment each.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 256)
        datas = make_ragged_datas(count=90, seed=61)
        segments = as_unique_segments(datas + [bytes(range(20)), bytes(range(30))])
        old = 55
        options = MatrixBuildOptions(
            workers=workers, use_cache=False, parallel_threshold=0
        )

        def written_cells(build):
            tracer = Tracer()
            with use_tracer(tracer):
                result = build()
            bins = tracer.find("matrix.bin")
            assert len(bins) > len({len(s.data) for s in segments})
            return result, sum(span.attributes["cells"] for span in bins)

        built, cells = written_cells(
            lambda: DissimilarityMatrix.build(segments, options=options)
        )
        assert cells == len(segments) ** 2
        grown, cells = written_cells(
            lambda: AppendableMatrix(segments[:old], options=options)
        )
        assert cells == old**2
        appended, cells = written_cells(lambda: grown.append(segments[old:]))
        assert cells == len(segments) ** 2 - old**2
        assert appended.values.tobytes() == built.values.tobytes()

    def test_serial_build_has_no_threaded_artifacts(self):
        datas = make_ragged_datas(count=20, seed=53)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            built = serial_build(datas)
        assert built.stats.tile_count == 0
        bins = tracer.find("matrix.bin")
        assert bins
        for span in bins:
            assert "worker" not in span.attributes
            assert "queue_seconds" not in span.attributes
        (build,) = tracer.find("matrix.build")
        assert "tiles" not in build.attributes
