"""Incremental session benchmark: append cost vs full batch re-run.

The tentpole claim of the incremental analysis session is that absorbing
a small batch of new messages into an already-analyzed stream costs a
fraction of re-running the whole analysis: the appended rows pay only
their new-vs-old rectangles and new-vs-new diagonal (O(a·n) cells
instead of O(n²)), the k-NN columns fold forward with a rank-k merge,
and the drift gate usually skips the post-matrix stages entirely.

This benchmark measures exactly that at each size n, through the
benchmark harness (``harness.py``): one batch ``run_analysis`` over
n + 5% messages, versus ``session.append`` of the 5% into a session
that already holds n.  The session's matrix bytes and epsilon must
equal the batch run's.  The acceptance floor — **append ≥ 5× cheaper
than the batch re-run at n = 5000** — is asserted on every run of that
size, and the work counts of the batch, the priming and the append
(matrix tiles and cells, window tables, neighbourhood edges) are
recorded in the committed ``BENCH_session.json`` baseline.  The
snapshot-reconcile cost (post-matrix stages only, no matrix rebuild) is
recorded alongside for context.

Usage::

    python benchmarks/bench_session.py                 # full grid, rewrite JSON
    python benchmarks/bench_session.py --sizes 1000    # re-record one row
    python benchmarks/bench_session.py --sizes 1000 --check
        # CI smoke: the work counts must equal the committed row's;
        # does not rewrite the JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import harness
from repro.api import run_analysis
from repro.core.segments import Segment
from repro.net.trace import Trace, TraceMessage
from repro.segmenters.base import Segmenter
from repro.session import AnalysisSession

BENCH_PATH = Path(__file__).parent / "BENCH_session.json"

DEFAULT_SIZES = (1000, 5000)
APPEND_FRACTION = 0.05

#: Acceptance floor: appending 5% at n=5000 vs the full batch re-run.
MIN_APPEND_SPEEDUP = 5.0
FLOOR_SIZE = 5000


class WholeMessageSegmenter(Segmenter):
    """One segment per message: isolates matrix growth from NEMESYS cost."""

    name = "whole-message"

    def segment_message(self, data: bytes, message_index: int = 0) -> list[Segment]:
        return [Segment(message_index=message_index, offset=0, data=data)]


def synthetic_messages(count: int, seed: int = 5) -> list[TraceMessage]:
    """Deterministic unique messages: dense value families plus scatter.

    The same population shape as bench_pipeline's synthetic trace (a few
    families per pseudo type, scattered remainder) so DBSCAN finds real
    density levels at every size.
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
    return [TraceMessage(data=data) for data in sorted(datas)]


def bench_size(n: int) -> harness.Case:
    case = harness.Case(f"n={n}")
    append_count = max(1, int(n * APPEND_FRACTION))
    messages = synthetic_messages(n + append_count)
    base, extra = messages[:n], messages[n:]

    batch_run = case.stage(
        "batch_rerun",
        run_analysis,
        Trace(messages=list(messages), protocol="bench"),
        segmenter=WholeMessageSegmenter(),
    )
    session = AnalysisSession(segmenter=WholeMessageSegmenter(), protocol="bench")
    case.stage("session_priming", session.append, base)
    update = case.stage("append", session.append, extra)
    snapshot = case.stage("snapshot_reconcile", session.snapshot)

    assert (
        np.asarray(snapshot.result.matrix.values).tobytes()
        == np.asarray(batch_run.result.matrix.values).tobytes()
    ), f"n={n}: incremental matrix diverged from the batch build"
    assert snapshot.result.epsilon == batch_run.result.epsilon

    case.ratio("batch_rerun", "append", MIN_APPEND_SPEEDUP if n >= FLOOR_SIZE else None)
    case.counts.update(
        append_count=append_count,
        append_reason=update.reason,
        clusters=int(snapshot.result.cluster_count),
        noise=int(len(snapshot.result.noise)),
    )
    case.recorded["epsilon"] = round(float(snapshot.result.epsilon), 6)
    return case


if __name__ == "__main__":
    args = harness.parser(__doc__, sizes=DEFAULT_SIZES).parse_args()
    sys.exit(harness.run(BENCH_PATH, (bench_size(n) for n in args.sizes), args.check))
