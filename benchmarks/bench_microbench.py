"""Microbenchmarks of the computational kernels.

Unlike the experiment benchmarks (single deterministic runs), these are
true repeated-timing benchmarks of the hot paths: Canberra dissimilarity
matrix construction (binned kernel serial vs threaded, against the
serial per-pair reference oracle, on random segments, on segments all
8 bytes or wider, and on the cross-length-heavy segments of an SMB
capture — all persisted to ``BENCH_matrix.json`` through the benchmark
harness), k-NN extraction, DBSCAN, and the NEMESYS segmenter against
its per-message reference loop.  Every timing is a span's wall time
(``harness.Case``).
"""

import statistics
from pathlib import Path

import numpy as np
import pytest

from conftest import attach_matrix_stats
from harness import Case, traced_build, write
from repro.core import matrix as matrix_mod
from repro.core.autoconf import configure
from repro.core.canberra import dissimilarity_matrix_reference
from repro.core.dbscan import dbscan
from repro.core.matrix import (
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
)
from repro.core.segments import Segment, unique_segments
from repro.protocols import get_model
from repro.segmenters import CspSegmenter, NemesysSegmenter
from repro.segmenters.base import boundaries_to_segments
from repro.segmenters.nemesys import nemesys_boundaries_reference

SERIAL = MatrixBuildOptions(workers=1)

#: Where the kernel-grid baseline lands (committed alongside the bench).
BENCH_MATRIX_PATH = Path(__file__).parent / "BENCH_matrix.json"

#: Matrix sizes of the kernel grid (unique segments).
KERNEL_GRID_SIZES = (200, 1000)

#: Acceptance floor: binned must beat the per-pair oracle single-core.
MIN_SINGLE_CORE_SPEEDUP = 5.0

#: Floor on how many times fewer LUT cells the window tables gather than
#: one gather per (short row, long window) would on the SMB segments.
MIN_CROSS_GATHER_REDUCTION = 3.0


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
    knn = benchmark(knn_distances_reference, ntp_matrix.values, 2)
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


def runs(case: Case, stage: str) -> list[float]:
    """Wall seconds of each run of *case*'s *stage*, in run order."""
    return [span.wall_seconds for span in case.tracer.find(stage)]


def median_ratio(case: Case, slow: str, fast: str) -> float:
    """Median of the ratios of *case*'s interleaved *slow* and *fast* runs."""
    return statistics.median(s / f for s, f in zip(runs(case, slow), runs(case, fast)))


def interleaved_builds(case, segments, serial_options, parallel_options, check):
    """The median serial/threaded ratio of interleaved builds.

    Runs :data:`SCALING_PAIRS` serial and threaded builds in turn, as
    *case*'s stages ``serial`` and ``parallel``, and calls
    *check(backend, matrix, build)* on every result, *build* being the
    attributes of its ``matrix.build`` span.
    """
    for _ in range(SCALING_PAIRS):
        for backend, options in (
            ("serial", serial_options),
            ("parallel", parallel_options),
        ):
            matrix = case.stage(backend, DissimilarityMatrix.build, segments, options=options)
            check(backend, matrix, case.tracer.find("matrix.build")[-1].attributes)
    return median_ratio(case, "serial", "parallel")


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
    and a parallel row silently degrading to serial fails the bench
    outright — a baseline that says "parallel" must have run parallel.
    The threaded binned build additionally has a scaling floor at
    n=1000 (≥2× on ≥4 usable cores, ≥1.2× on 2–3), so a scheduler
    regression cannot hide behind a green parity run.  Each row's
    ``seconds`` sum :data:`SCALING_PAIRS` interleaved builds per
    backend (their medians are recorded beside them); the single-core
    speed-up divides the oracle's seconds by the median serial build,
    and the scaling ratio is the median of the pairs' ratios.
    """
    monkeypatch.setattr(matrix_mod, "THREAD_POOL_MIN_CELLS", 0)
    rows = []
    cpus = available_cpus()
    for n in KERNEL_GRID_SIZES:
        segments = synthetic_unique_segments(n, seed=3)
        case = Case(f"grid n={n}")
        reference = case.stage(
            "pairwise", dissimilarity_matrix_reference, [s.data for s in segments]
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

        parallel_scaling = interleaved_builds(
            case,
            segments,
            MatrixBuildOptions(workers=1),
            MatrixBuildOptions(workers=GRID_WORKERS),
            check,
        )
        single_core = runs(case, "pairwise")[0] / statistics.median(runs(case, "serial"))
        case.ratios.update(
            {
                "pairwise/serial": round(single_core, 1),
                "serial/parallel": round(parallel_scaling, 2),
            }
        )
        case.recorded.update(
            {
                backend: {
                    "median_seconds": round(statistics.median(runs(case, backend)), 4),
                    **{key: build.get(key, 0) for key in ("backend", "workers", "tiles")},
                }
                for backend, build in builds.items()
            }
        )
        rows.append(case.row())
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
    write(BENCH_MATRIX_PATH, rows)
    # Register one timed binned serial build in the benchmark report.
    segments = synthetic_unique_segments(KERNEL_GRID_SIZES[0], seed=3)
    _, build = benchmark.pedantic(
        traced_build, args=(segments, SERIAL), rounds=1, iterations=1
    )
    attach_matrix_stats(benchmark, build)


def gathered_cells(root) -> tuple[int, int]:
    """LUT cells of the cross tiles under span *root*: one per (row,
    window) vs one per distinct window."""
    every = distinct = 0
    for span in root.walk():
        if span.name != "matrix.bin" or span.attributes["kind"] != "cross":
            continue
        attributes = span.attributes
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
    case = Case("cross_heavy")
    for backend, options in (
        ("serial", MatrixBuildOptions(workers=1)),
        ("parallel", MatrixBuildOptions(workers=GRID_WORKERS)),
    ):
        matrix = case.stage(backend, DissimilarityMatrix.build, segments, options=options)
        assert case.tracer.find("matrix.build")[-1].attributes["backend"] == backend
        every, distinct = gathered_cells(case.tracer.roots[-1])

    sample = np.random.default_rng(0).choice(len(segments), size=160, replace=False)
    sample.sort()
    reference = dissimilarity_matrix_reference([segments[i].data for i in sample])
    assert matrix.values[np.ix_(sample, sample)].tobytes() == reference.tobytes()

    reduction = every / distinct
    assert reduction >= MIN_CROSS_GATHER_REDUCTION, (
        f"window tables gather only {reduction:.2f}x fewer LUT cells "
        f"({distinct} vs {every}; floor {MIN_CROSS_GATHER_REDUCTION}x)"
    )
    case.counts.update(
        n=len(segments),
        lengths=len({segment.length for segment in segments}),
        cross_cells_every_window=every,
        cross_cells_distinct_windows=distinct,
    )
    case.ratios["cross_gather_reduction"] = round(reduction, 2)
    case.recorded.update(trace="smb n=240 seed=3, nemesys", parallel_workers=GRID_WORKERS)
    write(BENCH_MATRIX_PATH, [case.row()])
    benchmark.extra_info["cross_gather_reduction"] = round(reduction, 2)
    benchmark.extra_info["serial_seconds"] = round(runs(case, "serial")[0], 4)
    benchmark.extra_info["parallel_seconds"] = round(runs(case, "parallel")[0], 4)
    _, build = benchmark.pedantic(
        traced_build, args=(segments, SERIAL), rounds=1, iterations=1
    )
    attach_matrix_stats(benchmark, build)


#: Segment widths of the wide cases: all at least NUMPY_PAIRWISE_SUM_MIN,
#: so every cell gathers its terms and takes ``mean``.
WIDE_WIDTHS = (8, 12, 16, 24)


def test_matrix_wide_segments(benchmark):
    """The gather kernel's cases: random segments of 8 bytes and more.

    No width here is narrow enough for the plane sums, so these builds
    show that the wide path kept its speed: 2000 segments of widths
    8/12/16/24, and 1500 of width 16 alone, whose one equal-length bin
    runs as upper-band tiles.  Each build must return the oracle's bytes
    on a row sample; three serial builds of each are recorded in
    ``BENCH_matrix.json``, with their medians.
    """
    cases = {
        "mixed": synthetic_unique_segments(2000, seed=7, lengths=WIDE_WIDTHS),
        "single_width": synthetic_unique_segments(1500, seed=7, lengths=(16,)),
    }
    case = Case("wide")
    for name, segments in cases.items():
        for _ in range(3):
            matrix = case.stage(name, DissimilarityMatrix.build, segments, options=SERIAL)
        sample = np.random.default_rng(1).choice(len(segments), size=160, replace=False)
        sample.sort()
        reference = dissimilarity_matrix_reference([segments[i].data for i in sample])
        assert matrix.values[np.ix_(sample, sample)].tobytes() == reference.tobytes()
        median = round(statistics.median(runs(case, name)), 4)
        case.recorded[f"{name}_median_seconds"] = median
        benchmark.extra_info[f"{name}_serial_seconds"] = median
    case.recorded["segments"] = (
        "random; mixed: 2000 of widths 8/12/16/24, "
        "single_width: 1500 of width 16; seed 7"
    )
    write(BENCH_MATRIX_PATH, [case.row()])
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
    parallel_options = MatrixBuildOptions()
    built = {}

    def check(backend, matrix, build):
        if backend in built:
            assert np.array_equal(built[backend][0].values, matrix.values)
        built[backend] = matrix, build

    case = Case("parallel")
    speedup = interleaved_builds(case, segments, SERIAL, parallel_options, check)
    (serial, _), (parallel, build) = built["serial"], built["parallel"]
    # Register one timed parallel build in the benchmark report too.
    matrix, _ = benchmark.pedantic(
        traced_build, args=(segments, parallel_options), rounds=1, iterations=1
    )

    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.values, matrix.values)
    for backend in ("serial", "parallel"):
        seconds = statistics.median(runs(case, backend))
        benchmark.extra_info[f"{backend}_seconds"] = round(seconds, 3)
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
        case = Case(name)
        for _ in range(SCALING_PAIRS):
            case.stage("reference", nemesys_reference_segments, trace)
            case.stage("trace_pass", segmenter.segment, trace)
        ratio = median_ratio(case, "reference", "trace_pass")
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
