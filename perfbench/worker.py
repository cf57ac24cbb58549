"""The program process of the batch workloads.

Run as ``python3 perfbench/worker.py SPEC.json RESULT.json`` by
``run.py``, in a fresh interpreter.  It imports the library, prints
``ready`` (the end of set-up), then analyses the spec's capture files
pass after pass until its time is up.  An untraced pass calls
``run_analysis`` per capture; a traced pass performs the same
composition call by call, each inside a span.  Output checks and
scoring run between ops, never inside one.  The result (per-op and
per-pass timings, check outcomes, scores, layer totals) is written to
RESULT.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api import run_analysis  # noqa: E402
from repro.core.matrix import DissimilarityMatrix  # noqa: E402
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer  # noqa: E402
from repro.core.segments import unique_segments  # noqa: E402
from repro.msgtypes import cluster_message_types  # noqa: E402
from repro.msgtypes.similarity import indexed_sequences  # noqa: E402
from repro.net.pcap import read_pcap  # noqa: E402
from repro.net.reassembly import trace_from_tcp_capture  # noqa: E402
from repro.net.trace import load_trace  # noqa: E402
from repro.report import AnalysisReport  # noqa: E402
from repro.segmenters.registry import resolve_segmenter  # noqa: E402
from repro.statemachine.stage import infer_session_machine  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.spans import (  # noqa: E402
    SpanRecorder,
    cpu_seconds,
    layer_totals,
    peak_rss_mib,
    reset_peak_rss,
)

#: Top-level layers of a traced batch op, in pipeline order.
BATCH_LAYERS = (
    "net.ingest",
    "net.preprocess",
    "segmenters",
    "core.matrix",
    "core.cluster",
    "msgtypes",
    "statemachine",
    "report",
)

#: Passes per run at least: a median needs three.
MIN_PASSES = 3


def ingest(capture: dict):
    """The capture as a raw Trace, plus the number of frames read."""
    if capture["transport"] == "tcp":
        _, packets = read_pcap(capture["path"])
        trace = trace_from_tcp_capture(
            [(p.timestamp, p.data) for p in packets],
            protocol=capture["protocol"],
            port=capture["port"],
        )
        return trace, len(packets)
    trace = load_trace(capture["path"], protocol=capture["protocol"], port=capture["port"])
    return trace, len(trace)


def plain_op(capture: dict, stateful: bool):
    """One capture through the public entry point, as a user calls it."""
    if capture["transport"] == "tcp":
        raw, _ = ingest(capture)
        return run_analysis(raw, statemachine=stateful), raw
    run = run_analysis(
        capture["path"],
        protocol=capture["protocol"],
        port=capture["port"],
        statemachine=stateful,
    )
    return run, None


def traced_op(capture: dict, stateful: bool, recorder: SpanRecorder, op: str):
    """``run_analysis``'s composition, one span per layer call."""
    config = ClusteringConfig()
    types = machine = None
    with recorder.span("op", op, protocol=capture["protocol"]):
        with recorder.span("net.ingest", op) as attrs:
            raw, attrs["frames"] = ingest(capture)
        with recorder.span("net.preprocess", op) as attrs:
            trace = raw.preprocess()
            attrs["kept"], attrs["offered"] = len(trace), len(raw)
        with recorder.span("segmenters", op) as attrs:
            segmenter = resolve_segmenter(
                "nemesys", refinement=config.refinement, config=config
            )
            segments = segmenter.segment(trace)
            attrs["segments"] = len(segments)
        with recorder.span("core.matrix", op) as attrs:
            uniques = unique_segments(segments, min_length=1)
            analyzable = [u for u in uniques if u.length >= config.min_segment_length]
            excluded = [u for u in uniques if u.length < config.min_segment_length]
            matrix = DissimilarityMatrix.build(
                analyzable,
                penalty_factor=config.penalty_factor,
                options=config.matrix_options,
            )
            attrs["rows"] = len(analyzable)
            attrs["pairs"] = len(analyzable) * (len(analyzable) - 1) // 2
            attrs["mib"] = matrix.values.nbytes / 2**20
        with recorder.span("core.cluster", op) as attrs:
            result = FieldTypeClusterer(config).cluster_matrix(matrix, excluded)
            attrs["clusters"], attrs["retrims"] = result.cluster_count, result.retrims
        if stateful:
            with recorder.span("msgtypes", op) as attrs:
                types = cluster_message_types(
                    segments, len(trace), matrix=result.matrix, trace=trace
                )
                attrs["messages"] = len(trace)
                attrs["pairs"] = len(trace) * (len(trace) - 1) // 2
            with recorder.span("statemachine", op) as attrs:
                machine = infer_session_machine(raw, types, labeled_trace=trace)
                attrs["sessions"] = machine.session_count
                attrs["states"] = machine.state_count
        with recorder.span("report", op):
            AnalysisReport.build(result, trace, None, msgtypes=types, statemachine=machine)
    return raw, trace, segments, result, types, machine


def distinct_sequences(segments, trace, result) -> int:
    """Distinct segment-index sequences among the messages: what a
    message-type kernel that aligns each sequence once would align."""
    index_of = {u.data: i for i, u in enumerate(result.matrix.segments)}
    sequences = indexed_sequences(segments, len(trace), index_of)
    return len({tuple(s) for s in sequences})


def run_one(capture, stateful, recorder, op, reference, scores, inject) -> dict:
    """One timed op plus its (untimed) checks; returns the op record.

    Keeps no reference to the analysis objects, so the next op starts
    from the same memory state.
    """
    record = {"op": op, "protocol": capture["protocol"]}
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    try:
        if recorder is not None:
            raw, trace, segments, result, types, machine = traced_op(
                capture, stateful, recorder, op
            )
        else:
            run, raw = plain_op(capture, stateful)
            trace, segments, result = run.trace, run.segments, run.result
            types, machine = run.msgtypes, run.statemachine
    except Exception as exc:  # an op that raises is a failed op
        record.update(wall_s=time.perf_counter() - started, cpu_s=cpu_seconds() - cpu0)
        record["failure"] = f"raised {type(exc).__name__}: {exc}"
        return record
    record.update(wall_s=time.perf_counter() - started, cpu_s=cpu_seconds() - cpu0)

    failures = []
    try:
        fingerprint = checks.fingerprint(result, types, machine)
        if inject:
            fingerprint = "injected:" + fingerprint
        if reference.setdefault(capture["path"], fingerprint) != fingerprint:
            failures.append("fingerprint differs from the first op on this capture")
        if machine is not None:
            if raw is None:
                raw, _ = ingest(capture)
            rejected = checks.rejected_training_sessions(raw, trace, types, machine)
            if rejected:
                failures.append(f"automaton rejects {rejected} training sessions")
        if recorder is not None and types is not None:
            recorder.annotate(
                op,
                "msgtypes",
                distinct_sequences=distinct_sequences(segments, trace, result),
            )
        if capture["path"] not in scores:
            scores[capture["path"]] = checks.quality(
                capture["protocol"], trace, segments, result, types
            )
    except Exception as exc:  # a check that cannot run fails its op
        failures.append(f"check raised {type(exc).__name__}: {exc}")
    if failures:
        record["failure"] = "; ".join(failures)
    return record


def run_passes(spec: dict) -> dict:
    stateful = spec["stateful"]
    recorder = SpanRecorder() if spec["trace"] else None
    reference: dict = {}
    scores: dict = {}
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        # Traced runs alternate traced and untraced passes.
        traced = recorder is not None and index % 2 == 0
        pass_started = time.perf_counter()
        reset_peak_rss()
        ops = [
            run_one(
                capture,
                stateful,
                recorder if traced else None,
                f"p{index}.c{number}",
                reference,
                scores,
                spec["inject_mismatch"] and index == 1 and number == 0,
            )
            for number, capture in enumerate(spec["captures"])
        ]
        passes.append(
            {
                "traced": traced,
                "ops": ops,
                "peak_rss_mib": peak_rss_mib(),
                "elapsed_s": time.perf_counter() - pass_started,
            }
        )
        elapsed = time.perf_counter() - started
        next_pass = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + next_pass > spec["seconds"]:
            break
    outcome = {
        "passes": passes,
        "scores": [scores[c["path"]] for c in spec["captures"] if c["path"] in scores],
    }
    if recorder is not None:
        outcome["layers"] = layer_totals(recorder, BATCH_LAYERS)
        outcome["span_attrs"] = _span_attrs(recorder)
        recorder.dump(Path(spec["spans_path"]), spec["run_info"])
    return outcome


def _span_attrs(recorder: SpanRecorder) -> dict:
    """Sum of each numeric span attribute, per layer, over all traced ops."""
    sums: dict = {}
    for record in recorder.spans:
        for key, value in record["attrs"].items():
            if isinstance(value, (int, float)):
                name = f"{record['name']}.{key}"
                sums[name] = sums.get(name, 0) + value
    return sums


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0
    outcome = run_passes(spec)
    Path(argv[1]).write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
