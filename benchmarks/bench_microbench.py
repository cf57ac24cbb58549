"""Microbenchmarks of the computational kernels.

Unlike the experiment benchmarks (single deterministic runs), these are
true repeated-timing benchmarks of the hot paths: Canberra dissimilarity
matrix construction (binned kernel serial vs threaded, against the
serial per-pair reference oracle, on random segments, on segments all
8 bytes or wider, and on the cross-length-heavy segments of an SMB
capture — all persisted to ``BENCH_matrix.json`` as the perf trajectory
baseline), the warm matrix cache, k-NN extraction, DBSCAN, and the
NEMESYS segmenter against its per-message reference loop.
"""

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import attach_matrix_stats, traced_build
from repro.core import matrix as matrix_mod
from repro.core.autoconf import configure
from repro.core.canberra import dissimilarity_matrix_reference
from repro.core.dbscan import dbscan
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.matrixcache import cache_counters, cache_path, matrix_checksum
from repro.core.segments import Segment, unique_segments
from repro.obs.tracer import Tracer, use_tracer
from repro.protocols import get_model
from repro.segmenters import CspSegmenter, NemesysSegmenter
from repro.segmenters.base import boundaries_to_segments
from repro.segmenters.nemesys import nemesys_boundaries_reference

SERIAL = MatrixBuildOptions(workers=1, use_cache=False)

#: Where the kernel-grid baseline lands (committed alongside the bench).
BENCH_MATRIX_PATH = Path(__file__).parent / "BENCH_matrix.json"

#: Matrix sizes of the kernel grid (unique segments).
KERNEL_GRID_SIZES = (200, 1000)

#: Acceptance floor: binned must beat the per-pair oracle single-core.
MIN_SINGLE_CORE_SPEEDUP = 5.0

#: Floor on how many times fewer LUT cells the window tables gather than
#: one gather per (short row, long window) would on the SMB segments.
MIN_CROSS_GATHER_REDUCTION = 3.0


def write_bench_matrix(**sections) -> None:
    """Update *sections* of ``BENCH_matrix.json``, keeping the others."""
    payload = {}
    if BENCH_MATRIX_PATH.exists():
        payload = json.loads(BENCH_MATRIX_PATH.read_text())
    if payload.get("schema") != "repro.bench-matrix/v4":
        payload = {"schema": "repro.bench-matrix/v4"}
    payload.update(sections)
    BENCH_MATRIX_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def synthetic_unique_segments(
    count: int, seed: int = 5, lengths: tuple[int, ...] = (4, 6, 8, 10)
) -> list:
    """Deterministic mixed-length random segments (all values unique)."""
    rng = np.random.default_rng(seed)
    datas: set[bytes] = set()
    while len(datas) < count:
        length = lengths[int(rng.integers(0, len(lengths)))]
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    segments = [
        Segment(message_index=i, offset=0, data=d)
        for i, d in enumerate(sorted(datas))
    ]
    return unique_segments(segments)


@pytest.fixture(scope="module")
def ntp_segments():
    model = get_model("ntp")
    trace = model.generate(200, seed=9).preprocess()
    from repro.core.segments import segments_from_fields

    segments = []
    for i, msg in enumerate(trace):
        segments.extend(segments_from_fields(i, msg.data, model.dissect(msg.data)))
    return unique_segments(segments)


@pytest.fixture(scope="module")
def ntp_matrix(ntp_segments):
    return DissimilarityMatrix.build(ntp_segments)


def test_matrix_build(benchmark, ntp_segments, matrix_options):
    matrix, build = benchmark(traced_build, ntp_segments, matrix_options)
    assert len(matrix) == len(ntp_segments)
    attach_matrix_stats(benchmark, build)


def test_knn_distances(benchmark, ntp_matrix):
    knn = benchmark(ntp_matrix.knn_distances, 2)
    assert knn.shape == (len(ntp_matrix),)


def test_autoconf(benchmark, ntp_matrix):
    auto = benchmark(configure, ntp_matrix)
    assert auto.epsilon > 0


def test_dbscan(benchmark, ntp_matrix):
    result = benchmark(dbscan, ntp_matrix.values, 0.1, 5)
    assert result.labels.shape == (len(ntp_matrix),)


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware): what the
    library resolves ``workers=None`` to."""
    return MatrixBuildOptions().effective_workers()


#: Parallel worker count the kernel grid requests explicitly, so the
#: grid measures the same configuration on every machine.
GRID_WORKERS = 4

#: Scaling floor for the threaded binned build at n=1000 on a box with
#: at least GRID_WORKERS usable cores; relaxed floor from 2 cores up.
MIN_PARALLEL_SPEEDUP_4CORE = 2.0
MIN_PARALLEL_SPEEDUP_2CORE = 1.2

#: Serial/threaded build pairs, run interleaved, behind each scaling
#: ratio: the ratio is the median of the pairs' ratios, so one build
#: that the host happens to slow down does not decide the gate.
SCALING_PAIRS = 5


def interleaved_builds(segments, serial_options, parallel_options, check):
    """Median seconds per backend and the median serial/threaded ratio.

    Runs :data:`SCALING_PAIRS` serial and threaded builds in turn and
    calls *check(backend, matrix, build)* on every result, *build* being
    the attributes of its ``matrix.build`` span.
    """
    seconds = {"serial": [], "parallel": []}
    for _ in range(SCALING_PAIRS):
        for backend, options in (
            ("serial", serial_options),
            ("parallel", parallel_options),
        ):
            started = time.perf_counter()
            matrix, build = traced_build(segments, options)
            seconds[backend].append(time.perf_counter() - started)
            check(backend, matrix, build)
    ratio = statistics.median(
        serial / parallel for serial, parallel in zip(seconds["serial"], seconds["parallel"])
    )
    medians = {backend: statistics.median(runs) for backend, runs in seconds.items()}
    return medians, ratio


def test_matrix_kernel_grid(benchmark, monkeypatch):
    """binned serial vs parallel vs the per-pair oracle at n ∈ {200, 1000}.

    The whole grid must equal the oracle's bytes (the kernel sums the
    same terms in the same order), the binned kernel must beat the
    per-pair oracle by ≥5× single-core, and the measured grid is written
    to ``BENCH_matrix.json`` so future PRs have a perf trajectory.  The
    oracle is timed serially through
    :func:`repro.core.canberra.dissimilarity_matrix_reference`, the
    function the parity tests pin the kernel against.

    Honesty contract of the baseline: parallel rows request
    ``workers=4`` explicitly, lower ``THREAD_POOL_MIN_CELLS`` to 0 so
    even the n=200 build has enough work for the pool, and record the
    backend that *actually* ran (read from the ``matrix.build`` span),
    ``cpus`` records both ``os.cpu_count()`` and the scheduler affinity,
    and a parallel row silently degrading to serial fails the bench
    outright — a baseline that says "parallel" must have run parallel.
    The threaded binned build additionally has a scaling floor at
    n=1000 (≥2× on ≥4 usable cores, ≥1.2× on 2–3), so a scheduler
    regression cannot hide behind a green parity run.  Each
    backend's seconds are the median of :data:`SCALING_PAIRS`
    interleaved builds, and the scaling ratio the median of the pairs'
    ratios.
    """
    monkeypatch.setattr(matrix_mod, "THREAD_POOL_MIN_CELLS", 0)
    cases = []
    speedups = {}
    cpus = available_cpus()
    for n in KERNEL_GRID_SIZES:
        segments = synthetic_unique_segments(n, seed=3)
        started = time.perf_counter()
        reference = dissimilarity_matrix_reference([s.data for s in segments])
        oracle_seconds = time.perf_counter() - started
        cases.append(
            {
                "n": n,
                "kernel": "pairwise",
                "requested_backend": "serial",
                "backend": "serial",
                "workers": 1,
                "tiles": 0,
                "pairs_vectorized": 0,
                "seconds": round(oracle_seconds, 4),
            }
        )
        builds = {}

        def check(backend, matrix, build):
            assert matrix.values.tobytes() == reference.tobytes(), (
                f"kernel grid bytes differ from the oracle at n={n} binned/{backend}"
            )
            if backend == "parallel":
                # The baseline must not lie: a row labelled
                # "parallel" that ran serially (gate regression) fails
                # the bench instead of being committed as a fake
                # speedup.
                assert build["backend"] == "parallel", (
                    f"requested parallel build degraded to "
                    f"{build['backend']!r} at n={n} "
                    f"(workers={GRID_WORKERS}, {cpus} usable cores)"
                )
            builds[backend] = build

        seconds, parallel_scaling = interleaved_builds(
            segments,
            MatrixBuildOptions(workers=1, use_cache=False),
            MatrixBuildOptions(workers=GRID_WORKERS, use_cache=False),
            check,
        )
        for backend, build in builds.items():
            cases.append(
                {
                    "n": n,
                    "kernel": "binned",
                    "requested_backend": backend,
                    "backend": build["backend"],
                    "workers": build["workers"],
                    "tiles": build.get("tiles", 0),
                    "pairs_vectorized": build["pairs"],
                    "seconds": round(seconds[backend], 4),
                }
            )
        single_core = oracle_seconds / seconds["serial"]
        speedups[str(n)] = {
            "binned_vs_pairwise_serial": round(single_core, 1),
            "binned_parallel_vs_serial": round(parallel_scaling, 2),
        }
        assert single_core >= MIN_SINGLE_CORE_SPEEDUP, (
            f"binned kernel only {single_core:.1f}x faster than the per-pair "
            f"oracle at n={n} (floor: {MIN_SINGLE_CORE_SPEEDUP}x single-core)"
        )
        if n >= 1000:
            floor = (
                MIN_PARALLEL_SPEEDUP_4CORE
                if cpus >= GRID_WORKERS
                else MIN_PARALLEL_SPEEDUP_2CORE if cpus >= 2 else None
            )
            if floor is not None:
                assert parallel_scaling >= floor, (
                    f"threaded binned build only {parallel_scaling:.2f}x faster "
                    f"than serial at n={n} on {cpus} usable cores "
                    f"(floor: {floor}x)"
                )
        benchmark.extra_info[f"speedup_serial_n{n}"] = round(single_core, 1)
        benchmark.extra_info[f"scaling_parallel_n{n}"] = round(parallel_scaling, 2)
    write_bench_matrix(
        python=platform.python_version(),
        numpy=np.__version__,
        cpus=os.cpu_count(),
        cpus_available=cpus,
        grid_workers=GRID_WORKERS,
        cases=cases,
        speedups=speedups,
    )
    # Register one timed binned serial build in the benchmark report.
    segments = synthetic_unique_segments(KERNEL_GRID_SIZES[0], seed=3)
    _, build = benchmark.pedantic(
        traced_build, args=(segments, SERIAL), rounds=1, iterations=1
    )
    attach_matrix_stats(benchmark, build)


def gathered_cells(tracer: Tracer) -> tuple[int, int]:
    """LUT cells of the cross tiles: one per (row, window) vs per distinct window."""
    every = distinct = 0
    for span in tracer.find("matrix.bin"):
        attributes = span.attributes
        if attributes["kind"] != "cross":
            continue
        start, _, stop = attributes["tile"].partition(":")
        rows_by_m = (int(stop) - int(start)) * attributes["len_a"]
        every += rows_by_m * attributes["windows"]
        distinct += rows_by_m * attributes["unique_windows"]
    return every, distinct


def test_matrix_cross_heavy(benchmark, monkeypatch):
    """The window tables on the cross-length-heavy segments of real SMB.

    The NEMESYS unique segments of a 240-message SMB trace (the shape of
    the end-to-end benchmark's SMB capture: ~1900 segments over ~50
    lengths) spend nearly all their matrix time in cross-length tiles,
    and their longer segments repeat windows.  The build must return the
    oracle's bytes on a row subsample, gather at least
    ``MIN_CROSS_GATHER_REDUCTION`` times fewer LUT cells than one gather
    per window occurrence (a deterministic count read from the
    ``matrix.bin`` spans), and its serial and threaded seconds are
    recorded in ``BENCH_matrix.json``.
    """
    monkeypatch.setattr(matrix_mod, "THREAD_POOL_MIN_CELLS", 0)
    trace = get_model("smb").generate(240, seed=3).preprocess()
    segments = unique_segments(NemesysSegmenter().segment(trace))
    seconds = {}
    for backend, options in (
        ("serial", MatrixBuildOptions(workers=1, use_cache=False)),
        ("parallel", MatrixBuildOptions(workers=GRID_WORKERS, use_cache=False)),
    ):
        tracer = Tracer()
        started = time.perf_counter()
        with use_tracer(tracer):
            matrix = DissimilarityMatrix.build(segments, options=options)
        seconds[backend] = time.perf_counter() - started
        (build,) = tracer.find("matrix.build")
        assert build.attributes["backend"] == backend
        every, distinct = gathered_cells(tracer)

    sample = np.random.default_rng(0).choice(len(segments), size=160, replace=False)
    sample.sort()
    reference = dissimilarity_matrix_reference([segments[i].data for i in sample])
    assert matrix.values[np.ix_(sample, sample)].tobytes() == reference.tobytes()

    reduction = every / distinct
    assert reduction >= MIN_CROSS_GATHER_REDUCTION, (
        f"window tables gather only {reduction:.2f}x fewer LUT cells "
        f"({distinct} vs {every}; floor {MIN_CROSS_GATHER_REDUCTION}x)"
    )
    lengths = len({segment.length for segment in segments})
    write_bench_matrix(
        cross_heavy={
            "trace": "smb n=240 seed=3, nemesys",
            "n": len(segments),
            "lengths": lengths,
            "cross_cells_every_window": every,
            "cross_cells_distinct_windows": distinct,
            "cross_gather_reduction": round(reduction, 2),
            "serial_seconds": round(seconds["serial"], 4),
            "parallel_seconds": round(seconds["parallel"], 4),
            "parallel_workers": GRID_WORKERS,
        }
    )
    benchmark.extra_info["cross_gather_reduction"] = round(reduction, 2)
    benchmark.extra_info["serial_seconds"] = round(seconds["serial"], 4)
    benchmark.extra_info["parallel_seconds"] = round(seconds["parallel"], 4)
    _, build = benchmark.pedantic(
        traced_build, args=(segments, SERIAL), rounds=1, iterations=1
    )
    attach_matrix_stats(benchmark, build)


#: Segment widths of the wide cases: all at least NUMPY_PAIRWISE_SUM_MIN,
#: so every cell gathers its terms and takes ``mean``.
WIDE_WIDTHS = (8, 12, 16, 24)


def median_serial_seconds(segments, runs=3) -> tuple[float, DissimilarityMatrix]:
    """Median seconds of *runs* serial builds, and the last matrix."""
    seconds = []
    for _ in range(runs):
        started = time.perf_counter()
        matrix = DissimilarityMatrix.build(segments, options=SERIAL)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), matrix


def test_matrix_wide_segments(benchmark):
    """The gather kernel's cases: random segments of 8 bytes and more.

    No width here is narrow enough for the plane sums, so these builds
    show that the wide path kept its speed: 2000 segments of widths
    8/12/16/24, and 1500 of width 16 alone, whose one equal-length bin
    runs as upper-band tiles.  Each build must return the oracle's bytes
    on a row sample; the medians of three serial builds are recorded in
    ``BENCH_matrix.json``.
    """
    cases = {
        "mixed": synthetic_unique_segments(2000, seed=7, lengths=WIDE_WIDTHS),
        "single_width": synthetic_unique_segments(1500, seed=7, lengths=(16,)),
    }
    seconds = {}
    for name, segments in cases.items():
        seconds[name], matrix = median_serial_seconds(segments)
        sample = np.random.default_rng(1).choice(len(segments), size=160, replace=False)
        sample.sort()
        reference = dissimilarity_matrix_reference([segments[i].data for i in sample])
        assert matrix.values[np.ix_(sample, sample)].tobytes() == reference.tobytes()
    write_bench_matrix(
        wide={
            "segments": "random; mixed: 2000 of widths 8/12/16/24, "
            "single_width: 1500 of width 16; seed 7",
            "mixed_serial_seconds": round(seconds["mixed"], 4),
            "single_width_serial_seconds": round(seconds["single_width"], 4),
        }
    )
    for name, value in seconds.items():
        benchmark.extra_info[f"{name}_serial_seconds"] = round(value, 4)
    _, build = benchmark.pedantic(
        traced_build, args=(cases["mixed"], SERIAL), rounds=1, iterations=1
    )
    attach_matrix_stats(benchmark, build)


def test_matrix_build_parallel(benchmark, monkeypatch):
    """Parallel backend parity + speedup on a ≥2000-unique-segment trace.

    The speedup assertion is scaled to the runner: ≥2x on a proper
    multi-core machine, parity-only on single-core boxes where the
    backend falls back to serial anyway.  ``THREAD_POOL_MIN_CELLS`` is
    lowered to 0, so on two cores or more a build that runs inline
    fails the bench whatever the threshold says.  The speedup is the
    median of :data:`SCALING_PAIRS` interleaved serial/threaded builds'
    ratios.
    """
    monkeypatch.setattr(matrix_mod, "THREAD_POOL_MIN_CELLS", 0)
    segments = synthetic_unique_segments(2200)
    parallel_options = MatrixBuildOptions(use_cache=False)
    built = {}

    def check(backend, matrix, build):
        if backend in built:
            assert np.array_equal(built[backend][0].values, matrix.values)
        built[backend] = matrix, build

    seconds, speedup = interleaved_builds(segments, SERIAL, parallel_options, check)
    (serial, _), (parallel, build) = built["serial"], built["parallel"]
    # Register one timed parallel build in the benchmark report too.
    matrix, _ = benchmark.pedantic(
        traced_build, args=(segments, parallel_options), rounds=1, iterations=1
    )

    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.values, matrix.values)
    benchmark.extra_info["serial_seconds"] = round(seconds["serial"], 3)
    benchmark.extra_info["parallel_seconds"] = round(seconds["parallel"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["backend"] = build["backend"]
    attach_matrix_stats(benchmark, build)
    cpus = available_cpus()
    if cpus >= 4:
        assert build["backend"] == "parallel"
        assert speedup >= 2.0, f"parallel speedup {speedup:.2f}x < 2x on {cpus} cores"
    elif cpus >= 2:
        assert build["backend"] == "parallel"
        assert speedup >= 1.2, f"parallel speedup {speedup:.2f}x < 1.2x on {cpus} cores"


#: Most a warm build may take, as a multiple of reading and verifying
#: its cache entry (``np.load`` + ``matrix_checksum``) in the same run.
#: Beyond that a warm build computes the key (a sort of the segments)
#: and permutes the entry into the caller's order (two ``take`` calls),
#: about half a load and checksum at n=1600 on 2 vCPUs (1.4-1.6x).
MAX_WARM_OVER_LOAD = 3.0


def load_and_verify_seconds(path) -> float:
    """Best of three ``np.load`` + ``matrix_checksum`` of one cache entry."""
    runs = []
    for _ in range(3):
        started = time.perf_counter()
        with np.load(path) as archive:
            assert matrix_checksum(np.asarray(archive["values"])) == str(
                archive["checksum"]
            )
        runs.append(time.perf_counter() - started)
    return min(runs)


def test_matrix_cache_warm(benchmark, tmp_path):
    """A warm-cache build reads its entry and computes nothing.

    The cold build misses and stores; every later build hits, returns
    the cold bytes, runs no ``matrix.bin`` tile, and takes at most
    ``MAX_WARM_OVER_LOAD`` times what reading and checksumming the same
    entry takes, timed in the same run.  A ratio against the cold build
    would measure the kernel's speed instead of the cache path's.
    """
    segments = synthetic_unique_segments(1600, seed=11)
    options = MatrixBuildOptions(workers=1, use_cache=True, cache_dir=tmp_path)
    started = time.perf_counter()
    cold, cold_build = traced_build(segments, options)
    cold_seconds = time.perf_counter() - started
    assert not cold_build["cache_hit"]

    warm_seconds = []
    for _ in range(3):
        tracer = Tracer()
        started = time.perf_counter()
        with use_tracer(tracer):
            warm = DissimilarityMatrix.build(segments, options=options)
        warm_seconds.append(time.perf_counter() - started)
        (build,) = tracer.find("matrix.build")
        assert build.attributes["cache_hit"]
        assert not tracer.find("matrix.bin")
        assert np.array_equal(cold.values, warm.values)
    matrix, build = benchmark.pedantic(
        traced_build, args=(segments, options), rounds=1, iterations=1
    )
    assert np.array_equal(cold.values, matrix.values)
    counters = cache_counters()
    assert counters["hits"] >= 4 and counters["misses"] == 1

    load_seconds = load_and_verify_seconds(cache_path(cold_build["cache_key"], tmp_path))
    warm_over_load = min(warm_seconds) / load_seconds
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_seconds"] = round(min(warm_seconds), 4)
    benchmark.extra_info["load_and_verify_seconds"] = round(load_seconds, 4)
    benchmark.extra_info["warm_over_load"] = round(warm_over_load, 2)
    benchmark.extra_info["speedup"] = round(cold_seconds / min(warm_seconds), 1)
    attach_matrix_stats(benchmark, build)
    assert warm_over_load <= MAX_WARM_OVER_LOAD, (
        f"warm build {min(warm_seconds) * 1e3:.1f} ms is {warm_over_load:.2f}x "
        f"reading and verifying its entry ({load_seconds * 1e3:.1f} ms; "
        f"ceiling {MAX_WARM_OVER_LOAD}x)"
    )


#: Floor on how many times faster the trace-level NEMESYS pass segments a
#: trace than the per-message reference loop, both timed in the same run
#: (measured 4.2-4.9x on DNS-200 and NTP-700, 2 vCPUs).
MIN_NEMESYS_SPEEDUP = 3.0


def nemesys_reference_segments(trace) -> list:
    """The per-message loop the trace-level NEMESYS pass replaced."""
    segments = []
    for index, message in enumerate(trace):
        boundaries = nemesys_boundaries_reference(message.data)
        segments += boundaries_to_segments(message.data, boundaries, index)
    return segments


def test_nemesys_segmentation(benchmark):
    """The trace-level pass returns the reference loop's exact segments
    on DNS-200 and NTP-700, and beats it by ``MIN_NEMESYS_SPEEDUP`` in
    the median of :data:`SCALING_PAIRS` interleaved timings of each."""
    segmenter = NemesysSegmenter()
    traces = {
        "dns-200": get_model("dns").generate(200, seed=9).preprocess(),
        "ntp-700": get_model("ntp").generate(700, seed=9).preprocess(),
    }
    for name, trace in traces.items():
        expected = nemesys_reference_segments(trace)
        assert segmenter.segment(trace) == expected, name
        ratios = []
        for _ in range(SCALING_PAIRS):
            started = time.perf_counter()
            nemesys_reference_segments(trace)
            reference_seconds = time.perf_counter() - started
            started = time.perf_counter()
            segmenter.segment(trace)
            ratios.append(reference_seconds / (time.perf_counter() - started))
        ratio = statistics.median(ratios)
        benchmark.extra_info[f"{name}_speedup"] = round(ratio, 2)
        assert ratio >= MIN_NEMESYS_SPEEDUP, (
            f"trace-level NEMESYS only {ratio:.2f}x the reference loop on "
            f"{name} (floor {MIN_NEMESYS_SPEEDUP}x)"
        )
    segments = benchmark(segmenter.segment, traces["dns-200"])
    assert segments == nemesys_reference_segments(traces["dns-200"])


def test_csp_mining(benchmark):
    model = get_model("dns")
    trace = model.generate(200, seed=9).preprocess()
    segmenter = CspSegmenter()
    segments = benchmark(segmenter.segment, trace)
    assert segments
