"""Service-layer benchmark: wire overhead of the hardened repro-serve.

The hardening layer (admission queue, per-op deadline plumbing, single
worker executor, response pipeline) sits between every client and the
session, so its fixed cost per request is worth pinning.  This bench
drives the real subprocess over a real socket, through the benchmark
harness (``harness.py``), and measures:

- ``health`` round trips — the inline path (admission + response
  pipeline only, no queue, no executor);
- ``state`` round trips — the full queued path (bounded queue →
  worker → single-thread executor → response future);
- ``append`` throughput with the journal fsync on every chunk — the
  durability tax;
- the admission fast path under overload: how quickly a full queue
  turns requests into structured rejections (every response must be
  ``ok`` or ``overloaded``).

Its counts are the journaled session's state after the appends; how
many flood requests the queue rejects depends on timing and is only
recorded.

Usage::

    python benchmarks/bench_serve.py             # run, rewrite JSON
    python benchmarks/bench_serve.py --check     # compare counts vs baseline
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import harness

BENCH_PATH = Path(__file__).parent / "BENCH_serve.json"

ROUND_TRIPS = 300
APPEND_CHUNKS = 40
APPEND_CHUNK_MESSAGES = 10
FLOOD_REQUESTS = 200


class Server:
    def __init__(self, *extra_args):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            env=env,
        )
        ready = json.loads(self.proc.stdout.readline())
        self.sock = socket.create_connection(("127.0.0.1", ready["port"]), timeout=60)
        self.file = self.sock.makefile("rwb")

    def send(self, request: dict) -> None:
        self.file.write((json.dumps(request) + "\n").encode())
        self.file.flush()

    def recv(self) -> dict:
        return json.loads(self.file.readline())

    def rpc(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    def round_trips(self, requests) -> None:
        for request in requests:
            assert self.rpc(request)["ok"]

    def shutdown(self) -> None:
        assert self.rpc({"op": "shutdown"})["ok"]
        self.proc.wait(timeout=60)
        self.sock.close()
        self.proc.stdout.close()


def chunk(index: int) -> dict:
    return {
        "op": "append",
        "messages": [
            {"data": bytes([index % 256, i, (index * i) % 256, 7]).hex()}
            for i in range(APPEND_CHUNK_MESSAGES)
        ],
    }


def flood(server: Server) -> list[dict]:
    for index in range(FLOOD_REQUESTS):
        server.send(chunk(index))
    return [server.recv() for _ in range(FLOOD_REQUESTS)]


def bench(tmp_dir: Path) -> harness.Case:
    case = harness.Case("serve")
    server = Server("--protocol", "bench")
    # Prime the session so `state` reflects a non-trivial analysis.
    assert server.rpc(chunk(0))["ok"]
    case.stage("health_round_trips", server.round_trips, [{"op": "health"}] * ROUND_TRIPS)
    case.stage("state_round_trips", server.round_trips, [{"op": "state"}] * ROUND_TRIPS)
    server.shutdown()

    journaled = Server(
        "--protocol", "bench", "--checkpoint", str(tmp_dir / "bench.jsonl")
    )
    case.stage(
        "journaled_appends", journaled.round_trips, [chunk(i) for i in range(APPEND_CHUNKS)]
    )
    state = journaled.rpc({"op": "state"})["state"]
    journaled.shutdown()

    # Overload fast path: a 1-deep queue and a busy worker turn the
    # flood into immediate structured rejections.
    flooded = Server(
        "--protocol", "bench", "--queue-depth", "1", "--max-inflight", "2"
    )
    responses = case.stage("overload_flood", flood, flooded)
    assert all(r["ok"] or r["error"] == "overloaded" for r in responses)
    flooded.shutdown()

    case.counts.update(
        {key: state[key] for key in ("messages", "unique_segments", "clusters", "noise")}
    )
    seconds = case.tracer.stage_timings()
    case.recorded.update(
        health_rps=round(ROUND_TRIPS / seconds["health_round_trips"], 1),
        state_rps=round(ROUND_TRIPS / seconds["state_round_trips"], 1),
        appends_per_second=round(APPEND_CHUNKS / seconds["journaled_appends"], 1),
        flood_rejected=sum(1 for r in responses if not r["ok"]),
        flood_rps=round(FLOOD_REQUESTS / seconds["overload_flood"], 1),
    )
    return case


if __name__ == "__main__":
    args = harness.parser(__doc__).parse_args()
    with tempfile.TemporaryDirectory() as tmp_dir:
        status = harness.run(BENCH_PATH, [bench(Path(tmp_dir))], args.check)
    sys.exit(status)
