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
  (``None`` ⇒ every CPU the process may run on, ``0`` ⇒ serial,
  ``N >= 1`` ⇒ exactly N, negative ⇒ rejected);
- the threaded build's observability surface (``matrix.bin`` spans
  with worker/tile/queue-wait tags, one ``repro_span_seconds`` sample
  per tile);
- the schedule at the real work threshold: stream appends run inline,
  a field-pipeline build runs on the pool.

The parity tests lower the threshold with the ``thread_pool_always``
fixture, and every threaded build asserts from its ``matrix.build``
span that it ran on the pool.

The golden-trace corpus rides through the threaded backend in
``tests/golden/test_golden_traces.py::test_golden_trace_worker_stability``.
"""

import argparse
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalysisSession
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
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer
from repro.core.segments import Segment, unique_segments
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import SPAN_SECONDS_METRIC, Tracer, use_tracer
from repro.protocols import get_model
from repro.segmenters import NemesysSegmenter


def as_unique_segments(datas):
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)],
        min_length=1,
    )


def traced_build(datas, tracer=None, **options):
    """A build, its ``matrix.build`` span's attributes and its tile count,
    read from *tracer* (a fresh one by default)."""
    if tracer is None:
        tracer = Tracer()
    with use_tracer(tracer):
        built = DissimilarityMatrix.build(
            as_unique_segments(datas),
            options=MatrixBuildOptions(**options),
        )
    (build,) = tracer.find("matrix.build")
    return built, build.attributes, len(tracer.find("matrix.bin"))


def serial_build(datas, tracer=None, **kwargs):
    built, record, _ = traced_build(datas, tracer, workers=0, **kwargs)
    assert record["backend"] == "serial"
    return built


def threaded_build(datas, workers, tracer=None, **kwargs):
    """A build at *workers*, and its span's attributes.

    Under ``thread_pool_always`` it must run on the pool whenever it
    can: with more than one worker and more than one tile.
    """
    built, record, tiles = traced_build(datas, tracer, workers=workers, **kwargs)
    pooled = workers > 1 and tiles > 1
    assert record["backend"] == ("parallel" if pooled else "serial")
    assert record["workers"] == (workers if pooled else 1)
    assert record.get("tiles", 0) == (tiles if pooled else 0)
    return built, record


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


#: The property tests share the ``thread_pool_always`` patch across
#: examples; it only lowers a module constant, so nothing leaks between
#: them.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]


@pytest.mark.usefixtures("thread_pool_always")
class TestThreadedParity:
    @settings(max_examples=30, deadline=None, suppress_health_check=SHARED_FIXTURE)
    @given(datas=segment_sets, workers=st.sampled_from([1, 2, 4]))
    def test_bit_identical_to_serial(self, datas, workers):
        reference = serial_build(datas)
        built, _ = threaded_build(datas, workers)
        assert built.values.dtype == reference.values.dtype
        assert built.values.tobytes() == reference.values.tobytes()

    @settings(max_examples=15, deadline=None, suppress_health_check=SHARED_FIXTURE)
    @given(datas=segment_sets)
    def test_float32_bit_identical_to_serial(self, datas):
        reference = serial_build(datas, dtype=DTYPE_FLOAT32)
        built, _ = threaded_build(datas, 4, dtype=DTYPE_FLOAT32)
        assert built.values.dtype == np.float32
        assert built.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("dtype", [DTYPE_FLOAT64, DTYPE_FLOAT32])
    @pytest.mark.parametrize("storage", [STORAGE_RAM, STORAGE_MEMMAP])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dtype_storage_workers_grid(self, dtype, storage, workers):
        datas = make_ragged_datas(count=50, seed=23)
        reference = serial_build(datas, dtype=dtype)
        built, record = threaded_build(datas, workers, dtype=dtype, storage=storage)
        assert record["backend"] == "parallel"
        assert record["storage"] == storage
        assert np.asarray(built.values).tobytes() == reference.values.tobytes()

    def test_equal_length_only_set(self, monkeypatch):
        rng = np.random.default_rng(3)
        datas = list({bytes(rng.integers(0, 256, size=6, dtype=np.uint8)): None
                      for _ in range(40)})
        reference = serial_build(datas)
        # A single equal-length bin still threads (tiles, not blocks,
        # are the unit of work) once the budget cuts it into tiles.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)
        built, record = threaded_build(datas, 4)
        assert record["backend"] == "parallel" and record["tasks"] == 1
        assert built.values.tobytes() == reference.values.tobytes()

    def test_many_tiles_per_bin(self, monkeypatch):
        # Shrink the tile budget so single bins split into many tiles:
        # "same" tiles each write full rows of their bin, the others
        # their rows and the mirror of them.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)
        datas = make_ragged_datas(count=70, seed=29, max_length=8)
        reference = serial_build(datas)
        built, record = threaded_build(datas, 4)
        assert record["tiles"] > record["tasks"]
        assert built.values.tobytes() == reference.values.tobytes()

    def test_determinism_across_worker_counts(self):
        datas = make_ragged_datas(count=80, seed=31)
        reference = serial_build(datas)
        fingerprints = set()
        for workers in (2, 3, 4):
            built, record = threaded_build(datas, workers)
            assert record["backend"] == "parallel"
            fingerprints.add(built.values.tobytes())
        assert fingerprints == {reference.values.tobytes()}


class TestWorkersConvention:
    """None ⇒ usable CPUs, 0 ⇒ serial, N ⇒ exactly N — everywhere."""

    def test_effective_workers_resolution(self):
        assert MatrixBuildOptions(workers=None).effective_workers() == usable_cpus()
        assert MatrixBuildOptions(workers=0).effective_workers() == 1
        assert MatrixBuildOptions(workers=1).effective_workers() == 1
        assert MatrixBuildOptions(workers=5).effective_workers() == 5

    def test_default_workers_follow_the_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU (taskset -c 0) of a bigger host
        # gets one worker, so no pool is started for it.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert MatrixBuildOptions().effective_workers() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert MatrixBuildOptions().effective_workers() == 8

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            MatrixBuildOptions(workers=-1)

    def test_workers_zero_forces_serial_past_the_threshold(self, thread_pool_always):
        datas = make_ragged_datas(count=40, seed=43)
        _, record, tiles = traced_build(datas, workers=0)
        assert tiles > 1
        assert record["backend"] == "serial"
        assert "tiles" not in record

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
        assert options.effective_workers() == usable_cpus()


@pytest.mark.usefixtures("thread_pool_always")
class TestThreadedObservability:
    def test_bin_spans_and_queue_metrics(self):
        datas = make_ragged_datas(count=50, seed=47)
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_metrics(registry):
            _, record = threaded_build(datas, 2, tracer)
        assert record["backend"] == "parallel"
        assert record["workers"] == 2

        bins = tracer.find("matrix.bin")
        assert len(bins) == record["tiles"]
        for span in bins:
            assert span.attributes["worker"].startswith("repro-matrix")
            start, _, stop = span.attributes["tile"].partition(":")
            assert int(start) < int(stop)
            assert span.attributes["queue_seconds"] >= 0.0
            assert span.attributes["kind"] in ("same", "cross")

        durations = registry.histogram(SPAN_SECONDS_METRIC).snapshot(
            span="matrix.bin", status="ok"
        )
        assert durations["count"] == record["tiles"]
        assert durations["sum"] == pytest.approx(
            sum(span.wall_seconds for span in bins), abs=1e-9
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_bin_spans_cover_every_pair_and_count_windows(self, workers):
        # Low-entropy segments of many lengths, so windows recur.
        rng = np.random.default_rng(59)
        datas = list({
            bytes(rng.integers(0, 3, size=int(rng.integers(1, 16)), dtype=np.uint8)): None
            for _ in range(120)
        })
        tracer = Tracer()
        built, _ = threaded_build(datas, workers, tracer)
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
        options = MatrixBuildOptions(workers=workers)

        def written_cells(build, span_name):
            tracer = Tracer()
            with use_tracer(tracer):
                result = build()
            bins = tracer.find("matrix.bin")
            assert len(bins) > len({len(s.data) for s in segments})
            (span,) = tracer.find(span_name)
            assert span.attributes["workers"] == (workers or 1)
            assert ("tiles" in span.attributes) == (workers > 1)
            return result, sum(span.attributes["cells"] for span in bins)

        built, cells = written_cells(
            lambda: DissimilarityMatrix.build(segments, options=options), "matrix.build"
        )
        assert cells == len(segments) ** 2
        grown, cells = written_cells(
            lambda: AppendableMatrix(segments[:old], options=options), "matrix.build"
        )
        assert cells == old**2
        appended, cells = written_cells(
            lambda: grown.append(segments[old:]), "matrix.append"
        )
        assert cells == len(segments) ** 2 - old**2
        assert appended.values.tobytes() == built.values.tobytes()

    def test_inline_and_threaded_runs_record_the_same_tiles(self, monkeypatch):
        # One runner for both modes: a build and an append give the same
        # bytes and, apart from the thread's name and its queue wait,
        # the same tile spans.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 256)
        segments = as_unique_segments(make_ragged_datas(count=90, seed=67))
        old = 50
        runs = {}
        for workers in (0, 2):
            options = MatrixBuildOptions(workers=workers)
            tracer = Tracer()
            with use_tracer(tracer):
                built = DissimilarityMatrix.build(segments, options=options)
                appended = AppendableMatrix(segments[:old], options=options).append(
                    segments[old:]
                )
            builds = tracer.find("matrix.build") + tracer.find("matrix.append")
            assert {span.attributes["workers"] for span in builds} == {workers or 1}
            tiles = Counter(
                tuple(
                    sorted(
                        (key, value)
                        for key, value in span.attributes.items()
                        if key not in ("worker", "queue_seconds")
                    )
                )
                for span in tracer.find("matrix.bin")
            )
            runs[workers] = (built.values.tobytes(), appended.values.tobytes(), tiles)
        assert runs[0] == runs[2]

    def test_serial_build_has_no_threaded_artifacts(self):
        datas = make_ragged_datas(count=20, seed=53)
        tracer = Tracer()
        serial_build(datas, tracer)
        bins = tracer.find("matrix.bin")
        assert bins
        for span in bins:
            assert "worker" not in span.attributes
            assert "queue_seconds" not in span.attributes
        (build,) = tracer.find("matrix.build")
        assert "tiles" not in build.attributes


class TestSchedule:
    """Which builds reach the pool at the real ``THREAD_POOL_MIN_CELLS``,
    read from the spans (no timing)."""

    @pytest.fixture(scope="class")
    def ntp_segments(self):
        trace = get_model("ntp").generate(700, seed=924).preprocess()
        return unique_segments(NemesysSegmenter().segment(trace))

    def test_stream_appends_run_inline(self):
        # `repro serve` traffic: a DNS stream appended 10 messages at a
        # time adds a few dozen segments per append, too little work for
        # a pool even once the matrix holds hundreds of segments.
        messages = get_model("dns").generate(360, seed=924).messages
        config = ClusteringConfig(matrix_options=MatrixBuildOptions(workers=2))
        tracer = Tracer()
        with use_tracer(tracer):
            session = AnalysisSession(config, protocol="dns")
            for start in range(0, len(messages), 10):
                session.append(messages[start : start + 10])
        appends = [span.attributes for span in tracer.find("matrix.append")]
        assert max(a["old_segments"] + a["new_segments"] for a in appends) > 512
        for attributes in appends:
            assert attributes["workers"] == 1
            assert "tiles" not in attributes

    @staticmethod
    def scan_workers(tracer) -> dict:
        """The threads each post-matrix row scan reported, by span name."""
        return {
            name: {span.attributes["workers"] for span in tracer.find(name)}
            for name in ("matrix.knn", "dbscan.neighborhoods", "refine")
        }

    @pytest.mark.parametrize("workers, threads", [(2, 2), (0, 1)])
    def test_field_scans_run_on_the_pool_unless_serial(self, workers, threads):
        # NTP-700's 4274 segments: 18.3M cells a k-NN or ε-adjacency scan.
        trace = get_model("ntp").generate(700, seed=924).preprocess()
        config = ClusteringConfig(matrix_options=MatrixBuildOptions(workers=workers))
        tracer = Tracer()
        with use_tracer(tracer):
            FieldTypeClusterer(config).cluster(NemesysSegmenter().segment(trace))
        (build,) = tracer.find("matrix.build")
        assert build.attributes["unique_segments"] ** 2 >= matrix_mod.THREAD_POOL_MIN_CELLS
        assert self.scan_workers(tracer) == {
            "matrix.knn": {threads},
            "dbscan.neighborhoods": {threads},
            "refine": {threads},
        }

    def test_small_field_and_session_scans_run_inline(self):
        # SMB-240 (about 1900 segments) and a 600-message DNS session's
        # reclusters scan too few cells for the pool.
        config = ClusteringConfig(matrix_options=MatrixBuildOptions(workers=2))
        trace = get_model("smb").generate(240, seed=924).preprocess()
        messages = get_model("dns").generate(600, seed=924).messages
        tracer = Tracer()
        with use_tracer(tracer):
            FieldTypeClusterer(config).cluster(NemesysSegmenter().segment(trace))
            session = AnalysisSession(config, protocol="dns")
            for start in range(0, len(messages), 100):
                session.append(messages[start : start + 100])
        assert len(tracer.find("session.recluster")) >= 1
        assert self.scan_workers(tracer) == {
            "matrix.knn": {1},
            "dbscan.neighborhoods": {1},
            "refine": {1},
        }

    @pytest.mark.parametrize("workers, backend", [(2, "parallel"), (0, "serial")])
    def test_field_build_runs_on_the_pool_unless_serial(
        self, ntp_segments, workers, backend
    ):
        tiles = matrix_mod._task_tiles(
            matrix_mod._append_tasks({}, matrix_mod._length_bins(ntp_segments))
        )
        assert sum(cost for *_, cost in tiles) >= matrix_mod.THREAD_POOL_MIN_CELLS
        tracer = Tracer()
        with use_tracer(tracer):
            DissimilarityMatrix.build(
                ntp_segments, options=MatrixBuildOptions(workers=workers)
            )
        (build,) = tracer.find("matrix.build")
        assert build.attributes["backend"] == backend
        assert build.attributes.get("tiles") == (len(tiles) if workers else None)
