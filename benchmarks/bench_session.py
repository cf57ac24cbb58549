"""Incremental session benchmark: append cost vs full batch re-run.

The tentpole claim of the incremental analysis session is that absorbing
a small batch of new messages into an already-analyzed stream costs a
fraction of re-running the whole analysis: the appended rows pay only
their new-vs-old rectangles and new-vs-new diagonal (O(a·n) cells
instead of O(n²)), the k-NN columns fold forward with a rank-k merge,
and the drift gate usually skips the post-matrix stages entirely.

This benchmark measures exactly that at each size n: one batch
``run_analysis`` over n + 5% messages, versus ``session.append`` of the
5% into a session that already holds n.  The acceptance floor —
**append ≥ 5× cheaper than the batch re-run at n = 5000** — is asserted
on every full run and recorded in the committed ``BENCH_session.json``
baseline.  The snapshot-reconcile cost (post-matrix stages only, no
matrix rebuild) is recorded alongside for context.

Usage::

    python benchmarks/bench_session.py                 # full grid, rewrite JSON
    python benchmarks/bench_session.py --sizes 1000    # re-record one row
    python benchmarks/bench_session.py --sizes 1000 --check
        # CI smoke: compare against the committed baseline, fail on >2x
        # regression or a broken speedup floor; does not rewrite the JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import run_analysis  # noqa: E402
from repro.core.segments import Segment  # noqa: E402
from repro.net.trace import Trace, TraceMessage  # noqa: E402
from repro.segmenters.base import Segmenter  # noqa: E402
from repro.session import AnalysisSession  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_session.json"
SCHEMA = "repro.bench-session/v1"

DEFAULT_SIZES = (1000, 5000)
APPEND_FRACTION = 0.05

#: Acceptance floor: appending 5% at n=5000 vs the full batch re-run.
MIN_APPEND_SPEEDUP = 5.0
FLOOR_SIZE = 5000
#: --check fails when a timing regresses past this factor.
CHECK_REGRESSION_FACTOR = 2.0


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


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def bench_size(n: int) -> dict:
    append_count = max(1, int(n * APPEND_FRACTION))
    messages = synthetic_messages(n + append_count)
    base, extra = messages[:n], messages[n:]
    print(f"[bench] n={n}: batch over {len(messages)} messages ...", flush=True)

    batch_run, batch_seconds = timed(
        run_analysis,
        Trace(messages=list(messages), protocol="bench"),
        segmenter=WholeMessageSegmenter(),
    )

    session = AnalysisSession(segmenter=WholeMessageSegmenter(), protocol="bench")
    _, priming_seconds = timed(session.append, base)
    update, append_seconds = timed(session.append, extra)
    snapshot, snapshot_seconds = timed(session.snapshot)

    assert (
        np.asarray(snapshot.result.matrix.values).tobytes()
        == np.asarray(batch_run.result.matrix.values).tobytes()
    ), f"n={n}: incremental matrix diverged from the batch build"
    assert snapshot.result.epsilon == batch_run.result.epsilon

    speedup = batch_seconds / max(append_seconds, 1e-9)
    record = {
        "n": n,
        "append_count": append_count,
        "seconds": {
            "batch_rerun": round(batch_seconds, 4),
            "session_priming": round(priming_seconds, 4),
            "append": round(append_seconds, 4),
            "snapshot_reconcile": round(snapshot_seconds, 4),
        },
        "append_speedup": round(speedup, 1),
        "append_reclustered": bool(update.reclustered),
        "append_reason": update.reason,
        "clusters": int(snapshot.result.cluster_count),
        "noise": int(len(snapshot.result.noise)),
        "epsilon": round(float(snapshot.result.epsilon), 6),
        "matrix_identical": True,
    }
    print(
        f"[bench] n={n}: batch={batch_seconds:.2f}s append({append_count})="
        f"{append_seconds:.3f}s ({speedup:.1f}x) "
        f"snapshot={snapshot_seconds:.2f}s reason={update.reason}",
        flush=True,
    )
    if n >= FLOOR_SIZE:
        assert speedup >= MIN_APPEND_SPEEDUP, (
            f"n={n}: append speedup {speedup:.1f}x below the "
            f"{MIN_APPEND_SPEEDUP}x acceptance floor"
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
        # The speedup floor itself must not erode past the committed
        # value's neighborhood, whatever the absolute machine speed.
        if case["n"] >= FLOOR_SIZE and case["append_speedup"] < MIN_APPEND_SPEEDUP:
            failures.append(
                f"n={case['n']}: append speedup {case['append_speedup']}x "
                f"below the {MIN_APPEND_SPEEDUP}x floor"
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
        help=f"base message counts to benchmark (default: {DEFAULT_SIZES})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)

    results = [bench_size(n) for n in args.sizes]
    if args.check:
        return run_check(results)
    # Rows of sizes this run did not measure are kept, so re-recording
    # one size keeps the n=5000 row behind the speedup floor.
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
        "append_fraction": APPEND_FRACTION,
        "min_append_speedup": MIN_APPEND_SPEEDUP,
        "cases": [cases[n] for n in sorted(cases)],
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
