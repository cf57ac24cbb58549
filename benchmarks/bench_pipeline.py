"""Post-matrix pipeline scaling benchmark: matrix / autoconf / dbscan / refine.

Runs each pipeline stage through the benchmark harness (``harness.py``)
on synthetic traces of growing unique-segment counts and writes the
grid to ``BENCH_pipeline.json`` (the committed baseline).  Its
acceptance checks, wherever the oracles run (n <= 5000):

- the single-pass k-NN extraction (``knn_distances_all``, one
  ``np.partition`` selection per row block) must beat the per-k full
  sorts of ``knn_distances_reference`` by ≥5x, and ``dbscan`` must beat
  ``dbscan_reference``, the breadth-first oracle, by ≥2x, each wherever
  its fast side ran at least 10 ms, so a fall back to the oracle fails
  at every size;
- ``dbscan`` must return exactly the oracle's labels;

and at every size the post-matrix stages' peak RSS growth must stay
within the configured working-set bound plus the data-dependent
outputs (k-NN columns, CSR adjacency, labels).

Usage::

    python benchmarks/bench_pipeline.py                 # full grid, rewrite JSON
    python benchmarks/bench_pipeline.py --sizes 1000    # re-record the n=1000 row
    python benchmarks/bench_pipeline.py --sizes 1000 --check
        # CI smoke: the work counts must equal the committed row's and
        # the ratio floors hold; does not rewrite the JSON.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

import harness
from repro.core.autoconf import configure
from repro.core.dbscan import dbscan, dbscan_reference
from repro.core.matrix import (
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
)
from repro.core.membound import DEFAULT_MEMORY_BOUND_BYTES
from repro.core.refinement import refine
from repro.core.segments import Segment, unique_segments

BENCH_PATH = Path(__file__).parent / "BENCH_pipeline.json"

DEFAULT_SIZES = (1000, 5000, 20000)

#: Floor: one-pass k-NN vs the per-k full sorts.
MIN_KNN_SPEEDUP = 5.0
#: Floor: the component labelling vs the breadth-first reference.
#: Measured on 2 vCPUs at n=5000 (three runs): 5.8-6.9x.
MIN_DBSCAN_SPEEDUP = 2.0
#: Largest size at which the oracles run: the per-k sorts cost
#: O(k n^2 log n) and the breadth-first reference holds an n^2 boolean
#: matrix.
MAX_ORACLE_SIZE = 5000


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


def bench_size(n: int, memory_bound_bytes: int) -> harness.Case:
    case = harness.Case(f"n={n}")
    segments = synthetic_trace(n)
    options = MatrixBuildOptions(use_cache=False)
    # The post-matrix scans run on the default workers too, as the
    # pipeline runs them (threads where the matrix's pool rule allows).
    workers = options.effective_workers()
    matrix = case.stage("matrix", DissimilarityMatrix.build, segments, options=options)
    count = len(matrix)
    k_hi = min(max(2, round(math.log(count))), count - 1)
    oracles = count <= MAX_ORACLE_SIZE

    if oracles:
        case.stage(
            "knn_reference",
            lambda: [knn_distances_reference(matrix.values, k) for k in range(2, k_hi + 1)],
        )
    columns = case.stage("knn", matrix.knn_distances_all, k_hi, memory_bound_bytes, workers)
    auto = case.stage("autoconf", configure, matrix)  # reuses the cached columns

    gc.collect()
    before = rss_bytes()
    with RssSampler() as sampler:
        labelled = case.stage(
            "dbscan",
            dbscan,
            matrix.values,
            auto.epsilon,
            auto.min_samples,
            memory_bound_bytes=memory_bound_bytes,
            workers=workers,
        )
    rss_delta = max(0, sampler.peak - before)
    if oracles:
        reference = case.stage(
            "dbscan_reference", dbscan_reference, matrix.values, auto.epsilon, auto.min_samples
        )
        assert np.array_equal(labelled.labels, reference.labels), (
            f"dbscan/reference label divergence at n={count}"
        )
        case.ratio("knn_reference", "knn", MIN_KNN_SPEEDUP)
        case.ratio("dbscan_reference", "dbscan", MIN_DBSCAN_SPEEDUP)

    refined = case.stage(
        "refinement",
        refine,
        matrix.values,
        labelled.clusters(),
        segments,
        link_cap=1.5 * auto.epsilon,
        memory_bound_bytes=memory_bound_bytes,
        workers=workers,
    )
    case.counts.update(
        k_hi=k_hi,
        min_samples=int(auto.min_samples),
        clusters=int(labelled.cluster_count),
        noise=int(len(labelled.noise)),
        clusters_refined=len(refined),
    )

    # --- peak-RSS acceptance ---------------------------------------------
    # The bound covers per-block temporaries; the data-dependent outputs
    # (k-NN columns, CSR adjacency ~ 4 bytes/edge + counts, labels) are
    # additive, plus allocator slack.  The labelling's ~15 bytes/edge of
    # transients come after the blocks are freed, in the bound's room.
    edges = sum(span.attributes["edges"] for span in case.tracer.find("dbscan.neighborhoods"))
    budget = (
        memory_bound_bytes
        + columns.nbytes
        + 9 * edges
        + 16 * count
        + 128 * 1024 * 1024
    )
    case.recorded.update(
        epsilon=round(float(auto.epsilon), 6),
        memory_bound_bytes=memory_bound_bytes,
        dbscan_rss_delta_bytes=rss_delta,
        rss_budget_bytes=budget,
    )
    assert rss_delta <= budget, (
        f"n={count}: post-matrix RSS delta {rss_delta / 2**20:.0f} MiB exceeds "
        f"budget {budget / 2**20:.0f} MiB"
    )
    return case


if __name__ == "__main__":
    parser = harness.parser(__doc__, sizes=DEFAULT_SIZES)
    parser.add_argument(
        "--memory-bound-mb",
        type=int,
        default=DEFAULT_MEMORY_BOUND_BYTES // (1024 * 1024),
        help="working-set budget for the post-matrix stages",
    )
    args = parser.parse_args()
    bound = args.memory_bound_mb * 1024 * 1024
    cases = (bench_size(n, bound) for n in args.sizes)
    sys.exit(harness.run(BENCH_PATH, cases, args.check))
