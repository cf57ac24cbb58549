"""``repro-serve`` service: live appends, polls, and SIGKILL durability.

The service test that matters runs the real subprocess: stream a chunk,
ack it, SIGKILL the process mid-capture, restart on the same checkpoint
journal, stream the rest — the final cluster-state digest must equal a
clean uninterrupted run's, byte for byte (the append is only acked
after the journal fsync, so an acked chunk can never be lost).

In-process tests drive :class:`repro.serve.SessionServer` directly over
a fake session to pin the hardening semantics that need precise timing
control: strict cross-client ordering (``state`` must observe every
append admitted before it), per-op deadlines, and admission rejections.
The heavier crash/overload scenarios live in
``tests/faults/test_serve_chaos.py``.
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro.serve as serve_module
from repro.serve import ServiceOptions, SessionServer, build_parser, make_session

pytestmark = pytest.mark.serve


def make_chunk(rng: random.Random, count: int) -> dict:
    return {
        "op": "append",
        "messages": [
            {
                "data": bytes(
                    rng.randrange(256) for _ in range(rng.randrange(4, 24))
                ).hex()
            }
            for _ in range(count)
        ],
    }


class ServeProcess:
    def __init__(self, checkpoint):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--checkpoint",
                str(checkpoint),
                "--protocol",
                "p",
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        ready = json.loads(self.proc.stdout.readline())
        assert ready["event"] == "listening"
        self.sock = socket.create_connection(("127.0.0.1", ready["port"]), timeout=60)
        self.file = self.sock.makefile("rwb")

    def rpc(self, request: dict) -> dict:
        self.file.write((json.dumps(request) + "\n").encode())
        self.file.flush()
        return json.loads(self.file.readline())

    def kill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.sock.close()

    def shutdown(self):
        assert self.rpc({"op": "shutdown"})["event"] == "closing"
        self.proc.wait(timeout=30)
        self.sock.close()


def stream_digest(checkpoint, chunks, kill_after=None):
    """Stream *chunks*, optionally SIGKILLing after chunk *kill_after*."""
    server = ServeProcess(checkpoint)
    for index, chunk in enumerate(chunks):
        response = server.rpc(chunk)
        assert response["ok"], response
        if kill_after is not None and index == kill_after:
            server.kill()
            server = ServeProcess(checkpoint)  # resumes from the journal
    digest = server.rpc({"op": "digest"})
    assert digest["ok"], digest
    server.shutdown()
    return digest["digest"]


class TestServeDurability:
    def test_sigkill_mid_capture_resumes_to_clean_state(self, tmp_path):
        rng = random.Random(21)
        chunks = [make_chunk(rng, 30) for _ in range(3)]
        interrupted = stream_digest(tmp_path / "a.jsonl", chunks, kill_after=0)
        clean = stream_digest(tmp_path / "b.jsonl", chunks)
        assert interrupted == clean
        assert interrupted["matrix_sha256"] == clean["matrix_sha256"]


class TestServeProtocol:
    def test_state_and_errors(self, tmp_path):
        server = ServeProcess(tmp_path / "c.jsonl")
        try:
            rng = random.Random(5)
            assert server.rpc(make_chunk(rng, 20))["update"]["reclustered"]
            state = server.rpc({"op": "state"})["state"]
            assert state["messages"] == 20 and state["appends"] == 1
            assert not server.rpc({"op": "frobnicate"})["ok"]
            assert not server.rpc({"no": "op"})["ok"]
        finally:
            server.shutdown()


class _Update:
    def __init__(self, appended: int):
        self.appended_messages = appended
        self.reclustered = False


class FakeSession:
    """Session stand-in with controllable op latency and a call log."""

    def __init__(self, append_delay: float = 0.0):
        self.append_delay = append_delay
        self.calls = []
        self.message_count = 0
        self.unique_segment_count = 0
        self.appends = 0
        self.reclusters = 0
        self.compactions = 0
        self.replayed = {
            "snapshot": "none",
            "snapshot_messages": 0,
            "wal_chunks": 0,
            "archive_chunks": 0,
        }
        self.closed = False

    def wal_bytes(self):
        return None

    def append(self, messages):
        if self.append_delay:
            time.sleep(self.append_delay)
        self.calls.append(("append", len(messages)))
        self.appends += 1
        self.message_count += len(messages)
        return _Update(len(messages))

    def state(self):
        self.calls.append(("state", self.message_count))
        return {"messages": self.message_count, "appends": self.appends}

    def digest(self):
        self.calls.append(("digest", self.message_count))
        return {"messages": self.message_count}

    def close(self):
        self.closed = True


async def _start(server: SessionServer):
    """Run ``server.serve`` as a task; returns (task, bound port)."""
    task = asyncio.create_task(server.serve("127.0.0.1", 0))
    while server._listener is None:
        await asyncio.sleep(0.005)
    return task, server._listener.sockets[0].getsockname()[1]


async def _send(writer, obj) -> None:
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()


async def _recv(reader) -> dict:
    return json.loads(await reader.readline())


def _chunk_records(count: int) -> list[dict]:
    return [{"data": f"{i:02x}" * 8} for i in range(count)]


class TestAdmissionControl:
    def test_state_observes_prior_appends_across_clients(self):
        """Regression: ``state`` must queue behind in-flight appends.

        The pre-hardening server ran ``state`` inline on the event loop,
        so a poll racing a slow append could observe half-applied state.
        Now every session op rides the same FIFO queue.
        """
        session = FakeSession(append_delay=0.2)

        async def scenario():
            server = SessionServer(session, ServiceOptions())
            task, port = await _start(server)
            reader_a, writer_a = await asyncio.open_connection("127.0.0.1", port)
            reader_b, writer_b = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer_a, {"op": "append", "messages": _chunk_records(20)})
            await asyncio.sleep(0.05)  # append admitted and running
            await _send(writer_b, {"op": "state"})
            update = await _recv(reader_a)
            state = await _recv(reader_b)
            writer_a.close()
            writer_b.close()
            await server._drain(reason="shutdown")
            assert await task
            return update, state

        update, state = asyncio.run(scenario())
        assert update["ok"] and update["update"]["appended_messages"] == 20
        assert state["ok"] and state["state"]["messages"] == 20
        assert [name for name, _ in session.calls] == ["append", "state"]

    def test_queue_full_rejects_with_retry_after(self):
        async def scenario():
            server = SessionServer(
                FakeSession(append_delay=0.3),
                ServiceOptions(queue_depth=1, max_inflight=10),
            )
            task, port = await _start(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for _ in range(5):
                await _send(writer, {"op": "append", "messages": _chunk_records(2)})
            responses = [await _recv(reader) for _ in range(5)]
            writer.close()
            await server._drain(reason="shutdown")
            assert await task
            return responses

        responses = asyncio.run(scenario())
        accepted = [r for r in responses if r["ok"]]
        rejected = [r for r in responses if not r["ok"]]
        assert accepted and rejected
        for r in rejected:
            assert r["error"] == "overloaded"
            assert r["retry_after_ms"] >= 50

    def test_client_inflight_cap(self):
        async def scenario():
            server = SessionServer(
                FakeSession(append_delay=0.3),
                ServiceOptions(queue_depth=64, max_inflight=1),
            )
            task, port = await _start(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer, {"op": "append", "messages": _chunk_records(2)})
            await _send(writer, {"op": "append", "messages": _chunk_records(2)})
            first, second = await _recv(reader), await _recv(reader)
            writer.close()
            await server._drain(reason="shutdown")
            assert await task
            return first, second

        first, second = asyncio.run(scenario())
        assert first["ok"]
        assert second["error"] == "overloaded" and "in flight" in second["message"]

    def test_memory_guard_refuses_appends_serves_reads(self):
        async def scenario():
            server = SessionServer(
                FakeSession(), ServiceOptions(memory_limit_bytes=1)
            )
            task, port = await _start(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer, {"op": "append", "messages": _chunk_records(2)})
            refused = await _recv(reader)
            await _send(writer, {"op": "state"})
            state = await _recv(reader)
            await _send(writer, {"op": "health"})
            health = await _recv(reader)
            writer.close()
            await server._drain(reason="shutdown")
            assert await task
            return refused, state, health

        refused, state, health = asyncio.run(scenario())
        assert refused["error"] == "resource_exhausted"
        assert refused["rss_bytes"] > 1
        assert state["ok"]
        assert health["health"]["status"] == "degraded"

    def test_deadline_exceeded_abandons_but_recovers(self):
        session = FakeSession(append_delay=0.4)

        async def scenario():
            server = SessionServer(
                session,
                ServiceOptions(append_timeout=0.05, drain_timeout=5.0),
            )
            task, port = await _start(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer, {"op": "append", "messages": _chunk_records(3)})
            timed_out = await _recv(reader)
            await _send(writer, {"op": "state"})  # queues behind abandoned op
            state = await _recv(reader)
            writer.close()
            await server._drain(reason="shutdown")
            assert await task
            return timed_out, state

        timed_out, state = asyncio.run(scenario())
        assert timed_out["error"] == "deadline_exceeded"
        # The abandoned append still applied (it cannot be killed) and
        # the service kept serving afterwards.
        assert state["ok"] and state["state"]["messages"] == 3

    def test_shutdown_op_closes_other_clients(self):
        async def scenario():
            server = SessionServer(FakeSession(), ServiceOptions())
            task, port = await _start(server)
            reader_a, writer_a = await asyncio.open_connection("127.0.0.1", port)
            reader_b, writer_b = await asyncio.open_connection("127.0.0.1", port)
            await _send(writer_b, {"op": "shutdown"})
            closing = await _recv(reader_b)
            other_eof = await asyncio.wait_for(reader_a.readline(), timeout=5)
            drained = await task  # shutdown drains the whole service
            writer_a.close()
            writer_b.close()
            return closing, other_eof, drained

        closing, other_eof, drained = asyncio.run(scenario())
        assert closing == {"ok": True, "event": "closing"}
        assert other_eof == b""  # peer connection was closed by the drain
        assert drained


class TestWireProtocolEdgeCases:
    def _roundtrip(self, payloads: list):
        async def scenario():
            server = SessionServer(FakeSession(), ServiceOptions())
            task, port = await _start(server)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            responses = []
            for payload in payloads:
                if isinstance(payload, bytes):
                    writer.write(payload)
                    await writer.drain()
                else:
                    await _send(writer, payload)
                responses.append(await _recv(reader))
            writer.close()
            await server._drain(reason="shutdown")
            assert await task
            return responses

        return asyncio.run(scenario())

    def test_malformed_json_line(self):
        [response] = self._roundtrip([b"{not json\n"])
        assert response["error"] == "malformed_request"

    def test_non_object_request(self):
        [response] = self._roundtrip([["op", "state"]])
        assert response["error"] == "malformed_request"

    def test_missing_op(self):
        [response] = self._roundtrip([{"messages": []}])
        assert response["error"] == "malformed_request"

    def test_unknown_op(self):
        [response] = self._roundtrip([{"op": "frobnicate"}])
        assert response["error"] == "unknown_op"
        assert "frobnicate" in response["message"]

    def test_append_messages_not_a_list(self):
        [response] = self._roundtrip([{"op": "append", "messages": "nope"}])
        assert response["error"] == "invalid_request"

    def test_append_empty_messages_list_is_ok(self):
        [response] = self._roundtrip([{"op": "append", "messages": []}])
        assert response["ok"] and response["update"]["appended_messages"] == 0

    def test_errors_do_not_desync_the_stream(self):
        responses = self._roundtrip(
            [
                {"op": "append", "messages": _chunk_records(2)},
                {"op": "bogus"},
                {"op": "state"},
            ]
        )
        assert [r.get("ok") for r in responses] == [True, False, True]
        assert responses[2]["state"]["messages"] == 2

    def test_health_reports_queue_and_session(self):
        [response] = self._roundtrip([{"op": "health"}])
        health = response["health"]
        assert health["status"] == "ok"
        assert health["queue_capacity"] == 64
        assert health["clients"] == 1
        assert health["replayed"]["snapshot"] == "none"


class TestRunServerErrors:
    def test_first_error_survives_close_failure(self, monkeypatch, capsys):
        async def explode(self, host, port):
            raise RuntimeError("listener exploded")

        monkeypatch.setattr(serve_module.SessionServer, "serve", explode)
        monkeypatch.setattr(
            serve_module.AnalysisSession,
            "close",
            lambda self: (_ for _ in ()).throw(OSError("close failed")),
        )
        args = build_parser().parse_args(["--port", "0"])
        assert serve_module.run_server(args) == 1
        err = capsys.readouterr().err
        assert "listener exploded" in err
        assert "close failed" in err
        assert "first error" in err

    def test_close_failure_alone_is_nonzero(self, monkeypatch, capsys):
        async def instant(self, host, port):
            return True

        monkeypatch.setattr(serve_module.SessionServer, "serve", instant)
        monkeypatch.setattr(
            serve_module.AnalysisSession,
            "close",
            lambda self: (_ for _ in ()).throw(OSError("close failed")),
        )
        args = build_parser().parse_args(["--port", "0"])
        assert serve_module.run_server(args) == 1
        assert "close failed" in capsys.readouterr().err


class TestStartup:
    def test_spline_module_loads_before_listening(self):
        # In a fresh interpreter the library leaves the spline module
        # unloaded until it first clusters; the server loads it before it
        # listens, so no append's reply time pays the import.
        code = (
            "import sys\n"
            "import repro.serve as serve\n"
            "loaded = 'scipy.interpolate' in sys.modules\n"
            "async def listen(self, host, port):\n"
            "    print(loaded, 'scipy.interpolate' in sys.modules)\n"
            "    return True\n"
            "serve.SessionServer.serve = listen\n"
            "serve.run_server(serve.build_parser().parse_args(['--port', '0']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]


class TestServeArgs:
    def test_parser_builds_session(self, tmp_path):
        args = build_parser().parse_args(
            [
                "--protocol",
                "x",
                "--checkpoint",
                str(tmp_path / "d.jsonl"),
                "--recluster-fraction",
                "0.5",
                "--epsilon-tolerance",
                "0.2",
            ]
        )
        session = make_session(args)
        assert session.protocol == "x"
        assert session.recluster_fraction == 0.5
        assert session.epsilon_tolerance == 0.2
        session.close()

    def test_rejects_trace_global_segmenter(self):
        args = build_parser().parse_args(["--segmenter", "netzob"])
        with pytest.raises(ValueError, match="incrementally"):
            make_session(args)
