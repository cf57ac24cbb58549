"""Post-matrix pipeline scaling benchmark: matrix / autoconf / dbscan / refine.

Times each pipeline stage on synthetic traces of growing unique-segment
counts and writes the measured grid to ``BENCH_pipeline.json`` (the
committed perf-trajectory baseline).  Four acceptance checks ride
along:

- the single-pass k-NN extraction (``knn_distances_all``, one
  ``np.partition`` selection per row block) must beat the legacy per-k
  full-sort path by ≥5x at n=5000;
- ``dbscan`` must return exactly the labels of ``dbscan_reference``,
  the breadth-first oracle, wherever the oracle runs (n ≤ 5000);
- at n=5000, ``dbscan`` must also beat the reference by
  ``MIN_DBSCAN_SPEEDUP``;
- at every size the post-matrix stages' peak RSS growth must stay
  within the configured working-set bound plus the data-dependent
  outputs (k-NN columns, CSR adjacency, labels).

Usage::

    python benchmarks/bench_pipeline.py                 # full grid, rewrite JSON
    python benchmarks/bench_pipeline.py --sizes 1000    # quick run; rewrites
        # the n=1000 row of the JSON and keeps the other sizes' rows
    python benchmarks/bench_pipeline.py --sizes 1000 --check
        # CI smoke: compare against the committed baseline, fail on >2x
        # per-stage regression; does not rewrite the JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.autoconf import configure  # noqa: E402
from repro.core.dbscan import dbscan, dbscan_reference  # noqa: E402
from repro.core.matrix import (  # noqa: E402
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
)
from repro.core.membound import DEFAULT_MEMORY_BOUND_BYTES  # noqa: E402
from repro.core.refinement import refine  # noqa: E402
from repro.core.segments import Segment, unique_segments  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_pipeline.json"
SCHEMA = "repro.bench-pipeline/v3"

DEFAULT_SIZES = (1000, 5000, 20000)

#: Acceptance floor: one-pass k-NN vs legacy per-k full sorts at n=5000.
MIN_AUTOCONF_SPEEDUP = 5.0
#: Largest size at which the O(k n^2 log n) legacy path is still affordable.
MAX_LEGACY_SIZE = 5000
#: Largest size at which the breadth-first reference, which holds an
#: n^2 boolean matrix, runs.
MAX_REFERENCE_SIZE = 5000
#: Floor: the component labelling vs the breadth-first reference at
#: n=5000 (at n=1000 ``dbscan`` takes under the 0.01 s timer-noise
#: line, so the ratio there is only recorded).
#: Measured on 2 vCPUs (three runs): 5.8-6.9x.
MIN_DBSCAN_SPEEDUP = 2.0
#: --check fails when a stage is slower than baseline by more than this.
CHECK_REGRESSION_FACTOR = 2.0


def synthetic_trace(count: int, seed: int = 5) -> list:
    """Deterministic unique segments: dense families plus scatter.

    Mirrors the paper's setting (a few value families per data type and
    a scattered remainder) so that DBSCAN finds real density levels and
    the epsilon-graph stays sparse enough to benchmark at n=20000.
    """
    rng = np.random.default_rng(seed)
    datas: set[bytes] = set()
    bases = [rng.integers(0, 256, length) for length in (4, 6, 8) for _ in range(3)]
    while len(datas) < count // 2:
        base = bases[int(rng.integers(0, len(bases)))]
        jitter = rng.integers(0, 12, base.size)
        datas.add(bytes(((base + jitter) % 256).tolist()))
    while len(datas) < count:
        length = (4, 6, 8, 10)[int(rng.integers(0, 4))]
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    segments = [
        Segment(message_index=i, offset=0, data=d)
        for i, d in enumerate(sorted(datas))
    ]
    return unique_segments(segments)


def rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssSampler:
    """Background peak-RSS tracker (5 ms sampling)."""

    def __init__(self) -> None:
        self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, rss_bytes())
            self._stop.wait(0.005)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def bench_size(n: int, memory_bound_bytes: int) -> dict:
    print(f"[bench] n={n}: building matrix ...", flush=True)
    segments = synthetic_trace(n)
    options = MatrixBuildOptions(use_cache=False)
    # The post-matrix scans run on the default workers too, as the
    # pipeline runs them (threads where the matrix's pool rule allows).
    workers = options.effective_workers()
    matrix, matrix_seconds = timed(DissimilarityMatrix.build, segments, options=options)
    count = len(matrix)
    k_hi = min(max(2, round(math.log(count))), count - 1)
    record: dict = {
        "n": count,
        "k_hi": k_hi,
        "memory_bound_bytes": memory_bound_bytes,
        "seconds": {"matrix": round(matrix_seconds, 4)},
    }

    # --- autoconf: legacy per-k full sorts vs one partition pass -------
    if count <= MAX_LEGACY_SIZE:
        _, legacy_seconds = timed(
            lambda: [
                knn_distances_reference(matrix.values, k)
                for k in range(2, k_hi + 1)
            ]
        )
        record["seconds"]["knn_legacy"] = round(legacy_seconds, 4)
    matrix._knn_columns = None
    columns, partition_seconds = timed(
        matrix.knn_distances_all, k_hi, memory_bound_bytes, workers
    )
    record["seconds"]["knn_partition"] = round(partition_seconds, 4)
    if "knn_legacy" in record["seconds"]:
        record["knn_speedup"] = round(
            record["seconds"]["knn_legacy"] / max(partition_seconds, 1e-9), 1
        )
    auto, autoconf_seconds = timed(configure, matrix)  # reuses the cached columns
    record["seconds"]["autoconf"] = round(autoconf_seconds, 4)
    record["epsilon"] = round(float(auto.epsilon), 6)
    record["min_samples"] = int(auto.min_samples)

    # --- dbscan (memory-bounded) vs the BFS reference ------------------
    gc.collect()
    before = rss_bytes()
    with RssSampler() as sampler:
        labelled, dbscan_seconds = timed(
            dbscan,
            matrix.values,
            auto.epsilon,
            auto.min_samples,
            memory_bound_bytes=memory_bound_bytes,
            workers=workers,
        )
    record["seconds"]["dbscan"] = round(dbscan_seconds, 4)
    record["dbscan_rss_delta_bytes"] = max(0, sampler.peak - before)
    record["clusters"] = int(labelled.cluster_count)
    record["noise"] = int(len(labelled.noise))
    edges = int(
        sum(
            int(np.count_nonzero(matrix.values[i] <= auto.epsilon))
            for i in range(0, count, max(1, count // 64))
        )
        * max(1, count // 64)
    )
    record["epsilon_edges_estimate"] = edges
    if count <= MAX_REFERENCE_SIZE:
        reference, reference_seconds = timed(
            dbscan_reference, matrix.values, auto.epsilon, auto.min_samples
        )
        record["seconds"]["dbscan_reference"] = round(reference_seconds, 4)
        assert np.array_equal(labelled.labels, reference.labels), (
            f"dbscan/reference label divergence at n={count}"
        )
        record["labels_identical"] = True
        record["dbscan_speedup"] = round(
            reference_seconds / max(dbscan_seconds, 1e-9), 1
        )

    # --- refinement -----------------------------------------------------
    refined, refine_seconds = timed(
        refine,
        matrix.values,
        labelled.clusters(),
        segments,
        link_cap=1.5 * auto.epsilon,
        memory_bound_bytes=memory_bound_bytes,
        workers=workers,
    )
    record["seconds"]["refine"] = round(refine_seconds, 4)
    record["clusters_refined"] = len(refined)

    # --- peak-RSS acceptance at the largest sizes -----------------------
    # The bound covers per-block temporaries; the data-dependent outputs
    # (k-NN columns, CSR adjacency ~ 4 bytes/edge + counts, labels) are
    # additive, plus allocator slack.  The labelling's ~15 bytes/edge of
    # transients come after the blocks are freed, in the bound's room.
    budget = (
        memory_bound_bytes
        + columns.nbytes
        + 9 * edges
        + 16 * count
        + 128 * 1024 * 1024
    )
    record["rss_budget_bytes"] = budget
    record["rss_within_budget"] = bool(record["dbscan_rss_delta_bytes"] <= budget)
    assert record["rss_within_budget"], (
        f"n={count}: post-matrix RSS delta "
        f"{record['dbscan_rss_delta_bytes'] / 2**20:.0f} MiB exceeds budget "
        f"{budget / 2**20:.0f} MiB"
    )
    print(
        f"[bench] n={count}: matrix={matrix_seconds:.2f}s "
        f"knn={partition_seconds:.3f}s dbscan={dbscan_seconds:.2f}s "
        f"refine={refine_seconds:.2f}s clusters={record['clusters']}",
        flush=True,
    )
    return record


def run_check(results: list[dict]) -> int:
    """Compare a fresh run against the committed baseline (CI smoke)."""
    if not BENCH_PATH.exists():
        print(f"error: no baseline at {BENCH_PATH}", file=sys.stderr)
        return 2
    baseline = {case["n"]: case for case in json.loads(BENCH_PATH.read_text())["cases"]}
    failures = []
    for case in results:
        base = baseline.get(case["n"])
        if base is None:
            print(f"note: no baseline for n={case['n']}; skipping check")
            continue
        for stage, seconds in case["seconds"].items():
            reference = base["seconds"].get(stage)
            if reference is None or reference < 0.01:
                continue  # below timer noise; not a meaningful gate
            if seconds > CHECK_REGRESSION_FACTOR * reference:
                failures.append(
                    f"n={case['n']} {stage}: {seconds:.3f}s vs baseline "
                    f"{reference:.3f}s (> {CHECK_REGRESSION_FACTOR}x)"
                )
    if failures:
        print("perf regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("perf check passed: all stages within "
          f"{CHECK_REGRESSION_FACTOR}x of the committed baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help=f"unique-segment counts to benchmark (default: {DEFAULT_SIZES})",
    )
    parser.add_argument(
        "--memory-bound-mb",
        type=int,
        default=DEFAULT_MEMORY_BOUND_BYTES // (1024 * 1024),
        help="working-set budget for the post-matrix stages",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_pipeline.json instead of "
        "rewriting it; exit non-zero on a >2x per-stage regression",
    )
    args = parser.parse_args(argv)
    bound = args.memory_bound_mb * 1024 * 1024
    # The library imports its spline module when Algorithm 1 first
    # smooths an ECDF; load it before timing, so the first size's
    # autoconf times the stage and not that one-off import.
    import scipy.interpolate  # noqa: F401

    results = [bench_size(n, bound) for n in args.sizes]

    for case in results:
        if case["n"] >= MAX_LEGACY_SIZE and "knn_speedup" in case:
            assert case["knn_speedup"] >= MIN_AUTOCONF_SPEEDUP, (
                f"one-pass k-NN only {case['knn_speedup']}x faster than the "
                f"legacy per-k sorts at n={case['n']} "
                f"(floor: {MIN_AUTOCONF_SPEEDUP}x)"
            )
        if case["n"] >= MAX_LEGACY_SIZE and "dbscan_speedup" in case:
            assert case["dbscan_speedup"] >= MIN_DBSCAN_SPEEDUP, (
                f"dbscan only {case['dbscan_speedup']}x faster than "
                f"dbscan_reference at n={case['n']} "
                f"(floor: {MIN_DBSCAN_SPEEDUP}x)"
            )

    if args.check:
        return run_check(results)

    cases = {case["n"]: case for case in results}
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())
        if previous.get("schema") == SCHEMA:
            for case in previous["cases"]:
                cases.setdefault(case["n"], case)
    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cases": [cases[n] for n in sorted(cases)],
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
