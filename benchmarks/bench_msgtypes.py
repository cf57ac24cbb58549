"""Message-type stage benchmark: segment / matrix / similarity / cluster.

Times each stage of the message-type pipeline (NEMETYL substrate) on
seeded synthetic traces and writes the measured grid to
``BENCH_msgtypes.json`` (the committed perf-trajectory baseline).  The
substrate acceptance check rides along: messages clustered by
continuous segment similarity must recover the true message kinds with
precision >= 0.6 on every benchmarked protocol, validating the shared
Canberra machinery end-to-end from the message side.

Every case also times the per-pair Needleman–Wunsch oracle
(``alignment_dissimilarities_reference``) beside the batched kernel,
asserts that both return the same bytes, and asserts the kernel's
speed-up over the oracle: at least 5x on every case and 10x at AWDL
n=200.

Usage::

    python benchmarks/bench_msgtypes.py                  # full grid, rewrite JSON
    python benchmarks/bench_msgtypes.py --sizes 100      # quick run
    python benchmarks/bench_msgtypes.py --sizes 100 --check
        # CI smoke: compare against the committed baseline, fail on >2x
        # per-stage regression; does not rewrite the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.autoconf import configure  # noqa: E402
from repro.core.dbscan import dbscan  # noqa: E402
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions  # noqa: E402
from repro.core.segments import unique_segments  # noqa: E402
from repro.metrics import score_clustering  # noqa: E402
from repro.msgtypes.similarity import (  # noqa: E402
    alignment_dissimilarities,
    alignment_dissimilarities_reference,
    indexed_sequences,
)
from repro.protocols import get_model  # noqa: E402
from repro.segmenters import GroundTruthSegmenter  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_msgtypes.json"
SCHEMA = "repro.bench-msgtypes/v2"

PROTOCOLS = ("ntp", "dns", "smb", "awdl")
DEFAULT_SIZES = (100, 200)
SEED = 42

#: Substrate acceptance: recovered types vs true message kinds.
MIN_PRECISION = 0.6
#: --check fails when a stage is slower than baseline by more than this.
CHECK_REGRESSION_FACTOR = 2.0
#: Least speed-up of the batched similarity kernel over the per-pair
#: oracle, on every case; the ROADMAP target case must reach its own.
MIN_SPEEDUP = 5.0
TARGET_SPEEDUP = {("awdl", 200): 10.0}


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def bench_case(protocol: str, n: int) -> dict:
    model = get_model(protocol)
    trace = model.generate(n, seed=SEED).preprocess()
    segmenter = GroundTruthSegmenter(model)

    segments, segment_seconds = timed(segmenter.segment, trace)
    uniques = unique_segments(segments, min_length=2)
    matrix, matrix_seconds = timed(
        DissimilarityMatrix.build,
        uniques,
        options=MatrixBuildOptions(use_cache=False),
    )
    index_of = {u.data: i for i, u in enumerate(matrix.segments)}
    indexed = indexed_sequences(segments, len(trace), index_of)
    distances, similarity_seconds = timed(
        alignment_dissimilarities, indexed, matrix.values
    )
    oracle, reference_seconds = timed(
        alignment_dissimilarities_reference, indexed, matrix.values
    )
    speedup = reference_seconds / similarity_seconds

    def cluster_stage():
        auto = configure(
            DissimilarityMatrix(segments=[None] * len(trace), values=distances)
        )
        return auto, dbscan(distances, auto.epsilon, auto.min_samples)

    (auto, result), cluster_seconds = timed(cluster_stage)

    truth = [model.message_kind(m.data) for m in trace]
    score = score_clustering(
        [(int(label), truth[i]) for i, label in enumerate(result.labels)],
        beta=1.0,
    )
    record = {
        "protocol": protocol,
        "n": n,
        "unique_segments": len(matrix),
        "types": int(result.cluster_count),
        "true_kinds": len(set(truth)),
        "noise": int(len(result.noise)),
        "epsilon": round(float(auto.epsilon), 6),
        "precision": round(score.precision, 3),
        "recall": round(score.recall, 3),
        "seconds": {
            "segment": round(segment_seconds, 4),
            "matrix": round(matrix_seconds, 4),
            "similarity": round(similarity_seconds, 4),
            "cluster": round(cluster_seconds, 4),
        },
        "similarity_reference": round(reference_seconds, 4),
        "similarity_speedup": round(speedup, 1),
    }
    print(
        f"[bench] {protocol} n={n}: similarity={similarity_seconds:.3f}s "
        f"(reference {reference_seconds:.2f}s, {speedup:.1f}x) "
        f"cluster={cluster_seconds:.3f}s types={record['types']} "
        f"(true {record['true_kinds']}) P={record['precision']:.2f}",
        flush=True,
    )
    assert distances.tobytes() == oracle.tobytes(), (
        f"{protocol} n={n}: batched similarity differs from the per-pair oracle"
    )
    floor = TARGET_SPEEDUP.get((protocol, n), MIN_SPEEDUP)
    assert speedup >= floor, (
        f"{protocol} n={n}: similarity only {speedup:.1f}x faster than the "
        f"per-pair oracle (floor {floor}x)"
    )
    assert score.precision >= MIN_PRECISION, (
        f"{protocol} n={n}: message-type precision {score.precision:.2f} "
        f"below the {MIN_PRECISION} substrate floor"
    )
    return record


def run_check(results: list[dict]) -> int:
    """Compare a fresh run against the committed baseline (CI smoke)."""
    if not BENCH_PATH.exists():
        print(f"error: no baseline at {BENCH_PATH}", file=sys.stderr)
        return 2
    baseline = {
        (case["protocol"], case["n"]): case
        for case in json.loads(BENCH_PATH.read_text())["cases"]
    }
    failures = []
    for case in results:
        base = baseline.get((case["protocol"], case["n"]))
        if base is None:
            print(
                f"note: no baseline for {case['protocol']} n={case['n']}; "
                "skipping check"
            )
            continue
        for stage, seconds in case["seconds"].items():
            reference = base["seconds"].get(stage)
            if reference is None or reference < 0.01:
                continue  # below timer noise; not a meaningful gate
            if seconds > CHECK_REGRESSION_FACTOR * reference:
                failures.append(
                    f"{case['protocol']} n={case['n']} {stage}: "
                    f"{seconds:.3f}s vs baseline {reference:.3f}s "
                    f"(> {CHECK_REGRESSION_FACTOR}x)"
                )
    if failures:
        print("perf regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        "perf check passed: all stages within "
        f"{CHECK_REGRESSION_FACTOR}x of the committed baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help=f"message counts to benchmark (default: {DEFAULT_SIZES})",
    )
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(PROTOCOLS),
        choices=list(PROTOCOLS),
        help=f"protocol models to benchmark (default: {PROTOCOLS})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_msgtypes.json instead of "
        "rewriting it; exit non-zero on a >2x per-stage regression",
    )
    args = parser.parse_args(argv)

    results = [
        bench_case(protocol, n) for protocol in args.protocols for n in args.sizes
    ]

    if args.check:
        return run_check(results)

    payload = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cases": results,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
