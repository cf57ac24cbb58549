"""End-to-end benchmark of the field-type clustering pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stateful-pcap --seed 7 --seconds 36 --trace 0

Workloads (closed loops, load from one process; see README.md):

- ``stateful-pcap``: DHCP, DNS and SMB-over-TCP captures through
  ``run_analysis(statemachine=True)``;
- ``field-pcap``: NTP and SMB-over-TCP captures through the paper's
  field-type pipeline (``run_analysis`` without message types);
- ``serve-stream``: one connection to ``python -m repro serve`` sending
  ``append`` ops of 10 DNS messages, and a ``digest`` after every 10th.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same work with the benchmark's own spans around each layer's public
calls and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stateful-pcap", "field-pcap", "serve-stream")
#: Runtime directories, created inside the checkout.
SCRATCH_DIR = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

#: Fresh interpreters started only to time set-up, besides the real one.
SETUP_PROBES = 4
#: Seconds a worker may take to print ``ready``.
START_TIMEOUT = 60.0
#: Passes per run at least (per stream, for serve-stream): a median
#: needs three.
MIN_PASSES = 3
#: Distinct message streams of a serve-stream run.  The run serves them
#: in turn, so op *i* of a stream does the same work in each of the
#: stream's passes; more than one stream averages the drift gate's
#: data-dependent reclustering.
STREAMS = 2

END_TO_END = {
    "msgs_per_s": "msg/s",
    "cpu_ms_per_msg": "ms/msg",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ops_ok_share": "1",
}

LAYERS = (
    "net.ingest",
    "net.preprocess",
    "segmenters",
    "core.matrix",
    "core.cluster",
    "msgtypes",
    "statemachine",
    "report",
    "session.append",
    "session.digest",
    "serve",
)
LAYER_STATS = {"wall_s": "s", "cpu_s": "s", "share": "1", "rss_rise_mib": "MiB"}
LAYER_EXTRAS = {
    "net.ingest.frames": "count",
    "net.preprocess.kept_share": "1",
    "segmenters.segments": "count",
    "core.matrix.rows": "count",
    "core.matrix.pairs": "count",
    "core.matrix.mib": "MiB",
    "core.cluster.clusters": "count",
    "core.cluster.retrims": "count",
    "core.cluster.field_fscore": "1",
    "core.cluster.field_coverage": "1",
    "msgtypes.pairs": "count",
    "msgtypes.distinct_seq_share": "1",
    "msgtypes.precision": "1",
    "statemachine.sessions": "count",
    "statemachine.states": "count",
    "session.append.p50_ms": "ms",
    "session.append.stable_p50_ms": "ms",
    "session.append.recluster_p50_ms": "ms",
    "session.append.recluster_share": "1",
    "session.append.drift_share": "1",
    "session.append.new_rows": "count",
    "session.digest.p50_ms": "ms",
    "serve.append.p50_ms": "ms",
    "serve.append.p90_ms": "ms",
    "serve.digest.p50_ms": "ms",
    "serve.append.overhead_ms": "ms",
    "serve.digest.overhead_ms": "ms",
    "trace.layer_coverage": "1",
    "trace.overhead_share": "1",
    "host.steal_share": "1",
}


def per_layer_units() -> dict:
    units = {
        f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS.items()
    }
    units.update(LAYER_EXTRAS)
    return units


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def ms_median(seconds) -> float:
    return 1000.0 * statistics.median(seconds) if seconds else 0.0


def cpu_steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


# -- batch workloads -------------------------------------------------------


def launch_worker(spec: dict, scratch: Path, setup_only: bool = False):
    """Run the batch program in a fresh interpreter; (set-up seconds, result)."""
    from perfbench.stream import read_line

    spec_path, result_path = scratch / "spec.json", scratch / "result.json"
    spec_path.write_text(json.dumps(dict(spec, setup_only=setup_only)))
    stderr_path = scratch / "worker-stderr.txt"
    command = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path),
               str(result_path)]
    started = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr)
    try:
        line = read_line(proc.stdout, START_TIMEOUT)
        setup_s = time.perf_counter() - started
        proc.wait(timeout=START_TIMEOUT + 4 * spec["seconds"])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        detail = stderr_path.read_text(errors="replace")[-3000:]
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{detail}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def run_batch(args, scratch: Path, run_info: dict):
    from perfbench.captures import write_captures

    spec = {
        "captures": write_captures(args.workload, args.seed, args.scale, scratch),
        "stateful": args.workload == "stateful-pcap",
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "inject_mismatch": args.inject_mismatch,
        "spans_path": str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"),
        "run_info": run_info,
    }
    setups = [launch_worker(spec, scratch, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    setup_s, outcome = launch_worker(spec, scratch)
    setups.append(setup_s)
    passes = outcome["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    failures = [f"{o['op']} {o['protocol']}: {o['failure']}" for o in ops if "failure" in o]
    messages = sum(c["messages"] for c in spec["captures"])
    scores = outcome["scores"]
    quality = {
        key: statistics.fmean(s[key] for s in scores if key in s)
        for key in ("field_fscore", "field_coverage", "msgtype_precision")
        if any(key in s for s in scores)
    }
    summary = {
        "passes": len(passes),
        "ops": len(ops),
        "messages_per_pass": messages,
        "pass_msgs_per_s": [
            round(messages / sum(o["wall_s"] for o in p["ops"]), 2) for p in plain
        ],
        "pass_peak_rss_mib": [round(p["peak_rss_mib"], 1) for p in plain],
    }
    if not args.trace:
        metrics = {
            "msgs_per_s": messages / median_pass(plain, "wall_s"),
            "cpu_ms_per_msg": 1000.0 * median_pass(plain, "cpu_s") / messages,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        summary.update(quality)
        return metrics, len(ops), failures, summary

    per_pass = len(traced)
    layers = outcome["layers"]
    sums = outcome["span_attrs"]
    metrics = _layer_stats(layers["layers"], layers["op_wall_s"], per_pass)

    def attr(name: str) -> float:
        return sums.get(name, 0) / per_pass

    offered = sums.get("net.preprocess.offered", 0)
    msgtype_messages = sums.get("msgtypes.messages", 0)
    metrics.update(
        {
            "net.ingest.frames": attr("net.ingest.frames"),
            "net.preprocess.kept_share": sums["net.preprocess.kept"] / offered,
            "segmenters.segments": attr("segmenters.segments"),
            "core.matrix.rows": attr("core.matrix.rows"),
            "core.matrix.pairs": attr("core.matrix.pairs"),
            "core.matrix.mib": attr("core.matrix.mib"),
            "core.cluster.clusters": attr("core.cluster.clusters"),
            "core.cluster.retrims": attr("core.cluster.retrims"),
            "msgtypes.pairs": attr("msgtypes.pairs"),
            "msgtypes.distinct_seq_share": (
                sums.get("msgtypes.distinct_sequences", 0) / msgtype_messages
                if msgtype_messages
                else 0.0
            ),
            "msgtypes.precision": quality.get("msgtype_precision", 0.0),
            "core.cluster.field_fscore": quality.get("field_fscore", 0.0),
            "core.cluster.field_coverage": quality.get("field_coverage", 0.0),
            "statemachine.sessions": attr("statemachine.sessions"),
            "statemachine.states": attr("statemachine.states"),
            "trace.layer_coverage": layers["covered_s"] / layers["op_wall_s"],
            "trace.overhead_share": median_pass(traced, "wall_s")
            / median_pass(plain, "wall_s"),
        }
    )
    return metrics, len(ops), failures, summary


def median_pass(passes: list[dict], key: str) -> float:
    """A pass's op seconds, robust to a stall in any one op: the sum over
    the pass's ops of each op's median over *passes* (every pass repeats
    the same ops, so op *i* does the same work in each)."""
    return sum(
        statistics.median(p["ops"][i][key] for p in passes)
        for i in range(len(passes[0]["ops"]))
    )


def _layer_stats(totals: dict, op_wall_s: float, per_pass: int) -> dict:
    """``<layer>.wall_s/cpu_s/rss_rise_mib`` per pass, ``share`` of op wall."""
    metrics = {}
    for layer, entry in totals.items():
        metrics[f"{layer}.wall_s"] = entry["wall_s"] / per_pass
        metrics[f"{layer}.cpu_s"] = entry["cpu_s"] / per_pass
        metrics[f"{layer}.share"] = entry["wall_s"] / op_wall_s if op_wall_s else 0.0
        metrics[f"{layer}.rss_rise_mib"] = entry["rss_rise_mib"] / per_pass
    return metrics


# -- serve-stream ------------------------------------------------------------


def run_serve(args, scratch: Path, run_info: dict):
    from perfbench.captures import stream_messages, stream_ops
    from perfbench.spans import SpanRecorder, layer_totals
    from perfbench.stream import replay_pass, served_pass

    recorder = SpanRecorder() if args.trace else None
    streams = []
    for number in range(STREAMS):
        protocol, messages = stream_messages(args.seed, args.scale, number)
        expected, scores = stream_reference(protocol, messages)
        streams.append(
            {"protocol": protocol, "ops": stream_ops(messages), "messages": len(messages),
             "expected": expected, "scores": scores, "passes": []}
        )
    passes: list[dict] = []
    failures: list[str] = []
    rounds = []
    started = time.perf_counter()
    while True:
        number = len(passes)
        stream = streams[number % STREAMS]
        protocol, ops = stream["protocol"], stream["ops"]
        round_started = time.perf_counter()
        if recorder is not None:
            replay_pass(scratch, protocol, ops, recorder, f"p{number}")
        served = served_pass(ROOT, scratch, protocol, ops)
        replay = replay_pass(scratch, protocol, ops, None, "plain") if recorder else None
        failures += check_replies(
            number, ops, served["ops"], stream["expected"],
            args.inject_mismatch and number == 1,
        )
        record = {"ops": ops, "served": served, "replay": replay,
                  "messages": stream["messages"]}
        stream["passes"].append(record)
        passes.append(record)
        rounds.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        # Whole cycles only, so every stream has as many passes.
        if (
            len(passes) >= STREAMS * MIN_PASSES
            and len(passes) % STREAMS == 0
            and elapsed + STREAMS * statistics.median(rounds) > args.seconds
        ):
            break

    attempted = sum(len(p["ops"]) for p in passes)
    messages = sum(s["messages"] for s in streams)
    summary = {
        "passes": len(passes),
        "ops": attempted,
        "messages_per_stream": [s["messages"] for s in streams],
        "pass_msgs_per_s": [
            round(p["messages"] / sum(r["rtt_s"] for r in p["served"]["ops"]), 2)
            for p in passes
        ],
        **{
            key: statistics.fmean(s["scores"][key] for s in streams)
            for key in ("field_fscore", "field_coverage")
        },
    }

    def latencies(kind: str) -> list[float]:
        return [
            result["rtt_s"]
            for p in passes
            for op, result in zip(p["ops"], p["served"]["ops"])
            if op["op"] == kind
        ]

    def per_pass_median(value) -> float:
        return statistics.median(value(p) for p in passes)

    def op_seconds(stream: dict) -> float:
        """A pass's op seconds on *stream*: the sum over its ops of each
        op's median send-to-reply time over the stream's passes."""
        return sum(
            statistics.median(p["served"]["ops"][i]["rtt_s"] for p in stream["passes"])
            for i in range(len(stream["ops"]))
        )

    if not args.trace:
        metrics = {
            "msgs_per_s": messages / sum(op_seconds(s) for s in streams),
            "cpu_ms_per_msg": 1000.0 * sum(
                statistics.median(p["served"]["cpu_s"] for p in s["passes"])
                for s in streams
            ) / messages,
            "peak_rss_mib": per_pass_median(lambda p: p["served"]["peak_rss_mib"]),
            "setup_s": per_pass_median(lambda p: p["served"]["setup_s"]),
        }
        summary.update(
            append_p50_ms=ms_median(latencies("append")),
            append_p90_ms=1000.0 * p90(latencies("append")),
            read_p50_ms=ms_median(latencies("digest")),
        )
        return metrics, attempted, failures, summary

    totals = layer_totals(recorder, ("session.append", "session.digest"))
    appends = [s for s in recorder.spans if s["name"] == "session.append"]
    digests = [s for s in recorder.spans if s["name"] == "session.digest"]
    per_pass = len(passes)
    metrics = _layer_stats(totals["layers"], totals["op_wall_s"], per_pass)

    def overhead(kind: str) -> list[float]:
        return [
            result["rtt_s"] - replay_wall_s
            for p in passes
            for op, result, replay_wall_s in zip(
                p["ops"], p["served"]["ops"], p["replay"]["wall_s"]
            )
            if op["op"] == kind
        ]

    served_wall = sum(r["rtt_s"] for p in passes for r in p["served"]["ops"])
    replay_wall = sum(sum(p["replay"]["wall_s"]) for p in passes)
    served_cpu = sum(p["served"]["cpu_s"] for p in passes)
    replay_cpu = sum(p["replay"]["cpu_s"] for p in passes)
    serve_rise = per_pass_median(
        lambda p: p["served"]["peak_rss_mib"] - p["served"]["rss_at_listen_mib"]
    )
    session_rise = (
        metrics["session.append.rss_rise_mib"] + metrics["session.digest.rss_rise_mib"]
    )
    metrics.update(
        {
            "session.append.p50_ms": ms_median([s["wall_s"] for s in appends]),
            "session.append.stable_p50_ms": ms_median(
                [s["wall_s"] for s in appends if not s["attrs"]["reclustered"]]
            ),
            "session.append.recluster_p50_ms": ms_median(
                [s["wall_s"] for s in appends if s["attrs"]["reclustered"]]
            ),
            "session.append.recluster_share": sum(
                s["attrs"]["reclustered"] for s in appends
            ) / len(appends),
            "session.append.drift_share": sum(
                s["attrs"]["reason"] == "epsilon_drift" for s in appends
            ) / len(appends),
            "session.append.new_rows": sum(s["attrs"]["new_rows"] for s in appends)
            / per_pass,
            "session.digest.p50_ms": ms_median([s["wall_s"] for s in digests]),
            "core.cluster.field_fscore": summary["field_fscore"],
            "core.cluster.field_coverage": summary["field_coverage"],
            "serve.wall_s": (served_wall - replay_wall) / per_pass,
            "serve.cpu_s": (served_cpu - replay_cpu) / per_pass,
            "serve.share": (served_wall - replay_wall) / served_wall,
            "serve.rss_rise_mib": serve_rise - session_rise,
            "serve.append.p50_ms": ms_median(latencies("append")),
            "serve.append.p90_ms": 1000.0 * p90(latencies("append")),
            "serve.digest.p50_ms": ms_median(latencies("digest")),
            "serve.append.overhead_ms": ms_median(overhead("append")),
            "serve.digest.overhead_ms": ms_median(overhead("digest")),
            "trace.layer_coverage": totals["covered_s"] / totals["op_wall_s"],
            "trace.overhead_share": totals["op_wall_s"] / replay_wall,
        }
    )
    recorder.dump(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json", run_info)
    return metrics, attempted, failures, summary


def stream_reference(protocol: str, messages) -> tuple[dict, dict]:
    """Digest fields and quality scores of a batch run over *messages*.

    The session's documented contract is bit-identity with a batch run
    over the same messages, so the batch run is both the oracle for the
    served digest and what the served clustering is scored as.  Runs
    between passes, never inside the op phase.
    """
    from perfbench import checks
    from repro.api import run_analysis
    from repro.net.trace import Trace

    reference = run_analysis(Trace(messages=list(messages), protocol=protocol))
    return checks.batch_digest(reference.result), checks.quality(
        protocol, reference.trace, reference.segments, reference.result
    )


def check_replies(number: int, ops, results, expected: dict, inject: bool) -> list[str]:
    """Failures of one served pass: refused replies, and a final digest
    that differs from the batch run's."""
    from perfbench import checks

    failures = []
    for index, (op, result) in enumerate(zip(ops, results)):
        reply = result["reply"]
        if reply is None or not reply.get("ok"):
            failures.append(f"pass {number} op {index} {op['op']}: {reply}")
        elif index == len(ops) - 1:
            wrong = "injected" if inject else checks.digest_mismatch(reply["digest"], expected)
            if wrong:
                failures.append(f"pass {number} final digest differs from batch: {wrong}")
    return failures


# -- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; whole passes only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one op's fingerprint to exercise the output checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_DIR))
    steal0, total0 = cpu_steal_ticks()
    try:
        runner = run_serve if args.workload == "serve-stream" else run_batch
        metrics, attempted, failures, summary = runner(args, scratch, run_info)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    steal1, total1 = cpu_steal_ticks()
    steal_share = (steal1 - steal0) / max(1, total1 - total0)
    run_info["host.steal_share"] = steal_share
    if args.trace:
        metrics["host.steal_share"] = steal_share
    else:
        metrics["ops_ok_share"] = 1.0 - len(failures) / attempted
    units = per_layer_units() if args.trace else END_TO_END
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics without a declared unit: {sorted(unknown)}")
    # Layers a workload does not call report zero time and zero work.
    metrics = {name: metrics.get(name, 0.0) for name in units}

    print(f"# run {json.dumps(run_info)}")
    print(f"# {args.workload}: {json.dumps(summary)}")
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
