"""The serve-stream workload: one client, one connection, closed loop.

Each pass starts ``python -m repro serve`` with a write-ahead journal
in a fresh temporary directory (set-up ends at its ``listening`` line),
sends the op sequence over one TCP connection — every op only after
the previous reply — and reads the server's CPU time and memory
high-water mark from ``/proc`` before shutting it down.

The traced run also replays the same ops against an in-process
``AnalysisSession`` with the same journal setting, once without and
once with spans, so the service's own cost per op can be separated
from the session's.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.spans import SpanRecorder, peak_rss_mib, proc_status_mib, reset_peak_rss

#: Seconds a server may take to print its ``listening`` line.
START_TIMEOUT = 60.0
#: Seconds one reply may take before the pass is abandoned.
REPLY_TIMEOUT = 120.0
_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of process *pid*, all threads, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def read_line(pipe, timeout: float) -> bytes:
    """The next line from an unread pipe, or TimeoutError."""
    ready, _, _ = select.select([pipe], [], [], timeout)
    if not ready:
        raise TimeoutError(f"no line within {timeout:.0f} s")
    return pipe.readline()


def served_pass(root: Path, scratch: Path, protocol: str, ops: list[dict]) -> dict:
    """One fresh server, every op in order, then shutdown."""
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--protocol", protocol,
        "--checkpoint", str(workdir / "wal.jsonl"),
    ]
    stderr_path = workdir / "stderr.txt"
    started = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=stderr
        )
    try:
        line = read_line(proc.stdout, START_TIMEOUT)
        setup_s = time.perf_counter() - started
        port = json.loads(line)["port"]
        rss_at_listen = proc_status_mib("VmRSS", proc.pid)
        lines = [json.dumps(op).encode() + b"\n" for op in ops]
        replies = []
        with socket.create_connection(
            ("127.0.0.1", port), timeout=REPLY_TIMEOUT
        ) as sock, sock.makefile("rwb") as stream:
            cpu0 = proc_cpu_seconds(proc.pid)
            for line in lines:
                sent = time.perf_counter()
                stream.write(line)
                stream.flush()
                reply = stream.readline()
                replies.append((time.perf_counter() - sent, reply))
            cpu_s = proc_cpu_seconds(proc.pid) - cpu0
            hwm = peak_rss_mib(proc.pid)
            stream.write(b'{"op": "shutdown"}\n')
            stream.flush()
            stream.readline()
        proc.wait(timeout=START_TIMEOUT)
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired):
        sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": hwm,
        "rss_at_listen_mib": rss_at_listen,
        "ops": [
            {"rtt_s": seconds, "reply": json.loads(reply) if reply else None}
            for seconds, reply in replies
        ],
    }


def replay_pass(
    scratch: Path, protocol: str, ops: list[dict], recorder: SpanRecorder | None, tag: str
) -> dict:
    """The same ops against an in-process session with the same journal;
    per-op wall seconds and the pass's CPU seconds."""
    from repro.session import AnalysisSession

    workdir = Path(tempfile.mkdtemp(prefix="replay-", dir=scratch))
    walls = []
    # Read like the server's CPU (from /proc), so the two subtract.
    cpu0 = proc_cpu_seconds(os.getpid())
    reset_peak_rss()
    try:
        session = AnalysisSession(protocol=protocol, checkpoint_path=workdir / "wal.jsonl")
        try:
            for number, op in enumerate(ops):
                messages = (
                    [message_from_record(r) for r in op["messages"]]
                    if op["op"] == "append"
                    else None
                )
                started = time.perf_counter()
                if recorder is None:
                    _call(session, messages)
                else:
                    op_id = f"{tag}.o{number}"
                    with recorder.span("op", op_id, kind=op["op"]):
                        with recorder.span(f"session.{op['op']}", op_id) as attrs:
                            update = _call(session, messages)
                            if messages is not None:
                                attrs["new_rows"] = update.new_unique_segments
                                attrs["reclustered"] = update.reclustered
                                attrs["reason"] = update.reason
                walls.append(time.perf_counter() - started)
        finally:
            session.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"wall_s": walls, "cpu_s": proc_cpu_seconds(os.getpid()) - cpu0}


def message_from_record(record: dict):
    """A wire record as the TraceMessage the service builds from it."""
    from repro.net.trace import TraceMessage

    return TraceMessage(
        data=bytes.fromhex(record["data"]),
        timestamp=float(record.get("timestamp", 0.0)),
        src_ip=bytes.fromhex(record["src_ip"]) if "src_ip" in record else None,
        dst_ip=bytes.fromhex(record["dst_ip"]) if "dst_ip" in record else None,
        src_port=record.get("src_port"),
        dst_port=record.get("dst_port"),
    )


def _call(session, messages):
    """``append`` when there are messages, else ``digest``."""
    return session.digest() if messages is None else session.append(messages)
