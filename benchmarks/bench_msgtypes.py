"""Message-type stage benchmark: segment / matrix / similarity / cluster.

Runs each stage of the message-type pipeline (NEMETYL substrate)
through the benchmark harness (``harness.py``) on seeded synthetic
traces and writes the grid to ``BENCH_msgtypes.json`` (the committed
baseline).  The substrate acceptance check rides along: messages
clustered by continuous segment similarity must recover the true
message kinds with precision >= 0.6 on every benchmarked protocol,
validating the shared Canberra machinery end-to-end from the message
side.

Every case also runs the per-pair Needleman–Wunsch oracle
(``alignment_dissimilarities_reference``) beside the stage's batched
kernel (the ``msgtypes.similarity`` span), asserts that both return the
same bytes, and gates the kernel's speed-up over the oracle: at least
5x on every case and 10x at AWDL n=200.

Usage::

    python benchmarks/bench_msgtypes.py                  # full grid, rewrite JSON
    python benchmarks/bench_msgtypes.py --sizes 100      # quick run
    python benchmarks/bench_msgtypes.py --sizes 100 --check
        # CI smoke: the work counts must equal the committed rows' and
        # the similarity floors hold; does not rewrite the JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import harness
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import unique_segments
from repro.metrics import score_clustering
from repro.msgtypes.clustering import cluster_message_types
from repro.msgtypes.similarity import (
    alignment_dissimilarities_reference,
    indexed_sequences,
)
from repro.protocols import get_model
from repro.segmenters import GroundTruthSegmenter

BENCH_PATH = Path(__file__).parent / "BENCH_msgtypes.json"

PROTOCOLS = ("ntp", "dns", "smb", "awdl")
DEFAULT_SIZES = (100, 200)
SEED = 42

#: Substrate acceptance: recovered types vs true message kinds.
MIN_PRECISION = 0.6
#: Least speed-up of the batched similarity kernel over the per-pair
#: oracle, on every case; the ROADMAP target case must reach its own.
MIN_SPEEDUP = 5.0
TARGET_SPEEDUP = {("awdl", 200): 10.0}


def bench_case(protocol: str, n: int) -> harness.Case:
    case = harness.Case(f"{protocol} n={n}")
    model = get_model(protocol)
    trace = model.generate(n, seed=SEED).preprocess()

    segments = case.stage("segmentation", GroundTruthSegmenter(model).segment, trace)
    matrix = case.stage(
        "matrix",
        DissimilarityMatrix.build,
        unique_segments(segments, min_length=2),
        options=MatrixBuildOptions(use_cache=False),
    )
    types = case.stage("types", cluster_message_types, segments, len(trace), matrix=matrix)
    index_of = {u.data: i for i, u in enumerate(matrix.segments)}
    indexed = indexed_sequences(segments, len(trace), index_of)
    oracle = case.stage(
        "similarity_reference", alignment_dissimilarities_reference, indexed, matrix.values
    )
    assert types.distances.tobytes() == oracle.tobytes(), (
        f"{protocol} n={n}: batched similarity differs from the per-pair oracle"
    )
    case.ratio(
        "similarity_reference",
        "msgtypes.similarity",
        TARGET_SPEEDUP.get((protocol, n), MIN_SPEEDUP),
    )

    truth = [model.message_kind(m.data) for m in trace]
    score = score_clustering(
        [(int(label), truth[i]) for i, label in enumerate(types.labels)],
        beta=1.0,
    )
    case.counts.update(
        segments=len(segments),
        unique_segments=len(matrix),
        types=types.type_count,
        true_kinds=len(set(truth)),
        noise=types.noise_count,
    )
    case.recorded.update(
        epsilon=round(float(types.epsilon), 6),
        precision=round(score.precision, 3),
        recall=round(score.recall, 3),
    )
    assert score.precision >= MIN_PRECISION, (
        f"{protocol} n={n}: message-type precision {score.precision:.2f} "
        f"below the {MIN_PRECISION} substrate floor"
    )
    return case


if __name__ == "__main__":
    args = harness.parser(__doc__, sizes=DEFAULT_SIZES, protocols=PROTOCOLS).parse_args()
    cases = (bench_case(p, n) for p in args.protocols for n in args.sizes)
    sys.exit(harness.run(BENCH_PATH, cases, args.check))
