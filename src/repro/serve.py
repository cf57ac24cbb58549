"""``repro-serve`` — a production-hardened live analysis service.

A thin asyncio JSON-lines TCP front-end for
:class:`repro.session.AnalysisSession`: capture tooling streams message
chunks in, analysts poll the evolving cluster state out.  One session,
many clients; admitted requests are applied strictly in arrival order.

Protocol (one JSON object per line, response per request)::

    -> {"op": "append", "messages": [{"data": "<hex>", ...}, ...]}
    <- {"ok": true, "update": {"appended_messages": 12, ...}}

    -> {"op": "state"}
    <- {"ok": true, "state": {"messages": 512, "clusters": 4, ...}}

    -> {"op": "digest"}
    <- {"ok": true, "digest": {"matrix_sha256": "...", "clusters": ...}}

    -> {"op": "health"}
    <- {"ok": true, "health": {"status": "ok", "queue_depth": 0, ...}}

    -> {"op": "shutdown"}
    <- {"ok": true, "event": "closing"}

Refusals share one structured envelope — ``{"ok": false, "error":
"<code>", "message": "...", ...}`` with codes ``malformed_request``,
``unknown_op``, ``invalid_request``, ``overloaded`` (plus
``retry_after_ms``), ``resource_exhausted``, ``deadline_exceeded``,
``draining``, and ``internal``.

Degradation model:

- **Admission control** — session ops pass through a bounded request
  queue (``--queue-depth``) with a per-client concurrent-request cap
  (``--max-inflight``); once either is exhausted the request is
  rejected immediately with ``overloaded`` + ``retry_after_ms`` instead
  of queueing without bound.  ``health`` is always answered inline so
  an overloaded service stays observable.
- **Deadlines** — ``--append-timeout`` / ``--digest-timeout`` bound
  each session op.  A blown deadline abandons the executor call (a
  thread cannot be killed) and reports ``deadline_exceeded``; a
  timed-out append is *ambiguous* — it journals before applying, so it
  may still land, and replay dedup makes a retry safe.
- **Memory watchdog** — with ``--max-rss-mb`` set, appends are refused
  with ``resource_exhausted`` once process RSS crosses the limit while
  ``state``/``digest``/``health`` keep being served.
- **Graceful drain** — SIGTERM/SIGINT (or a ``shutdown`` op, which
  closes the listener and *every* connected client) stop admission,
  finish everything already admitted, flush responses, then exit;
  ``--drain-timeout`` hard-caps the wait.

Durability: with ``--checkpoint`` the session journals every chunk
(fsync) *before* applying it, and an ``append`` is acked only after
both.  Kill the process at any moment — SIGKILL included — and a
restart with the same checkpoint path replays to the exact same
session state.  ``--wal-max-bytes`` bounds the journal: the session
compacts it into a checksummed snapshot so a restart replays only the
WAL tail (see :mod:`repro.session`).

On startup the service prints one ready line to stdout —
``{"event": "listening", "host": ..., "port": N}`` — so callers binding
port 0 learn the ephemeral port.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cliopts import DEFAULT_MAX_LINE_BYTES, service_parent
from repro.core.membound import MemoryGuard, current_rss_bytes
from repro.core.pipeline import ClusteringConfig
from repro.obs.export import write_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.session import AnalysisSession, _message_from_record

SERVE_REQUESTS_METRIC = "repro_serve_requests_total"
SERVE_REJECTED_METRIC = "repro_serve_rejected_total"
SERVE_OP_SECONDS_METRIC = "repro_serve_op_seconds"
SERVE_QUEUE_DEPTH_METRIC = "repro_serve_queue_depth"
SERVE_CLIENTS_METRIC = "repro_serve_clients"
SERVE_DRAINS_METRIC = "repro_serve_drains_total"

_REQUESTS_HELP = "Service requests by op and outcome (ok/error/rejected)."
_REJECTED_HELP = (
    "Requests refused at admission "
    "(reason: queue_full/client_cap/resource_exhausted/draining)."
)
_OP_SECONDS_HELP = "Wall seconds per executed session op."
_QUEUE_DEPTH_HELP = "Admitted requests waiting in the bounded queue."
_CLIENTS_HELP = "Currently connected clients."
_DRAINS_HELP = "Drain phases entered (reason: SIGTERM/SIGINT/shutdown)."

#: Ops that run on the session and therefore pass admission control.
_QUEUED_OPS = ("append", "state", "digest")

_STATUS_OK = "ok"
_STATUS_DEGRADED = "degraded"
_STATUS_DRAINING = "draining"

_EOF = object()


@dataclass(frozen=True)
class ServiceOptions:
    """Admission, deadline, and lifecycle knobs of one service instance."""

    #: Bounded depth of the shared request queue.
    queue_depth: int = 64
    #: Per-client concurrent (admitted, unanswered) request cap.
    max_inflight: int = 8
    #: Per-op deadlines in seconds (None = unbounded).
    append_timeout: float | None = None
    digest_timeout: float | None = None
    #: Hard cap on the drain phase before in-flight work is abandoned.
    drain_timeout: float = 10.0
    #: Longest accepted request line; longer lines drop the client.
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    #: RSS limit for the memory watchdog (None = no guard).
    memory_limit_bytes: int | None = None

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be > 0")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")


class _Client:
    """Per-connection admission state."""

    __slots__ = ("inflight", "shutdown")

    def __init__(self):
        self.inflight = 0
        self.shutdown = False


class _Request:
    """One admitted session op waiting in (or executing from) the queue."""

    __slots__ = ("op", "fn", "future", "client")

    def __init__(self, op, fn, future, client):
        self.op = op
        self.fn = fn
        self.future = future
        self.client = client


def _error(code: str, message: str, **extra) -> dict:
    """The structured error envelope every refusal shares."""
    return {"ok": False, "error": code, "message": message, **extra}


class SessionServer:
    """One analysis session behind a hardened JSON-lines TCP endpoint.

    The session is synchronous and stateful: admitted requests are
    consumed by a single worker task and executed one at a time on a
    single-thread executor, so the event loop stays responsive while a
    recluster or matrix append is in flight and ordering across clients
    is strict arrival order.
    """

    def __init__(
        self,
        session: AnalysisSession,
        options: ServiceOptions | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.session = session
        self.options = options or ServiceOptions()
        self.metrics = metrics or MetricsRegistry()
        self._guard = MemoryGuard(limit_bytes=self.options.memory_limit_bytes)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.options.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-session"
        )
        self._clients: set[asyncio.StreamWriter] = set()
        self._response_queues: set[asyncio.Queue] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._listener: asyncio.AbstractServer | None = None
        self._worker_task: asyncio.Task | None = None
        self._draining = False
        self._stopped = asyncio.Event()
        self._drained_ok = True
        #: EWMA of executed-op wall seconds, seeding retry_after_ms.
        self._ewma_seconds = 0.05

    # -- observability -------------------------------------------------

    def _count_request(self, op: str, outcome: str) -> None:
        self.metrics.counter(SERVE_REQUESTS_METRIC, help=_REQUESTS_HELP).inc(
            op=op, outcome=outcome
        )

    def _count_reject(self, op: str, reason: str) -> None:
        self._count_request(op, "rejected")
        self.metrics.counter(SERVE_REJECTED_METRIC, help=_REJECTED_HELP).inc(
            reason=reason
        )

    def _set_gauges(self) -> None:
        self.metrics.gauge(SERVE_QUEUE_DEPTH_METRIC, help=_QUEUE_DEPTH_HELP).set(
            self._queue.qsize()
        )
        self.metrics.gauge(SERVE_CLIENTS_METRIC, help=_CLIENTS_HELP).set(
            len(self._clients)
        )

    def _retry_after_ms(self) -> int:
        """When a rejected client should retry: queue backlog × EWMA op cost."""
        backlog = self._queue.qsize() + 1
        estimate = int(1000 * self._ewma_seconds * backlog)
        return max(50, min(estimate, 60_000))

    def status(self) -> str:
        if self._draining:
            return _STATUS_DRAINING
        if self._guard.exceeded():
            return _STATUS_DEGRADED
        return _STATUS_OK

    def _health(self) -> dict:
        session = self.session
        return {
            "ok": True,
            "health": {
                "status": self.status(),
                "queue_depth": self._queue.qsize(),
                "queue_capacity": self.options.queue_depth,
                "clients": len(self._clients),
                "wal_bytes": session.wal_bytes(),
                "rss_bytes": current_rss_bytes(),
                "memory_limit_bytes": self.options.memory_limit_bytes,
                "messages": session.message_count,
                "unique_segments": session.unique_segment_count,
                "appends": session.appends,
                "reclusters": session.reclusters,
                "compactions": session.compactions,
                "replayed": dict(session.replayed),
            },
        }

    # -- admission (event loop, never blocks on the session) -----------

    def _admit(self, line: bytes, client: _Client):
        """Admit one request line: an immediate response dict, or the
        future of a queued session op."""
        try:
            request = json.loads(line)
        except ValueError:
            self._count_request("?", "rejected")
            return _error("malformed_request", "request is not valid JSON")
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            self._count_request("?", "rejected")
            return _error(
                "malformed_request", "request must be an object with an 'op' string"
            )
        op = request["op"]
        if op == "health":
            self._count_request(op, "ok")
            return self._health()
        if op == "shutdown":
            client.shutdown = True
            self._count_request(op, "ok")
            return {"ok": True, "event": "closing"}
        if op not in _QUEUED_OPS:
            self._count_request(op, "rejected")
            return _error("unknown_op", f"unknown op {op!r}")
        if self._draining:
            self._count_reject(op, "draining")
            return _error("draining", "service is draining; request refused")
        if op == "append":
            if not isinstance(request.get("messages"), list):
                self._count_request(op, "rejected")
                return _error("invalid_request", "'messages' must be a list")
            if self._guard.exceeded():
                self._count_reject(op, "resource_exhausted")
                return _error(
                    "resource_exhausted",
                    "memory guard tripped; appends refused until RSS drops "
                    "(state/digest/health still served)",
                    rss_bytes=current_rss_bytes(),
                    memory_limit_bytes=self.options.memory_limit_bytes,
                )
        if client.inflight >= self.options.max_inflight:
            self._count_reject(op, "client_cap")
            return _error(
                "overloaded",
                f"client already has {client.inflight} requests in flight "
                f"(cap {self.options.max_inflight})",
                retry_after_ms=self._retry_after_ms(),
            )
        fn = self._op_fn(op, request)
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(_Request(op, fn, future, client))
        except asyncio.QueueFull:
            self._count_reject(op, "queue_full")
            return _error(
                "overloaded",
                f"request queue full (depth {self.options.queue_depth})",
                retry_after_ms=self._retry_after_ms(),
            )
        client.inflight += 1
        future.add_done_callback(lambda _f: self._admitted_done(client))
        self._set_gauges()
        return future

    def _admitted_done(self, client: _Client) -> None:
        client.inflight -= 1

    def _op_fn(self, op: str, request: dict):
        """The session callable for one admitted op.

        Message decoding happens inside the callable — on the executor
        thread, off the event loop — so a huge chunk cannot stall other
        clients' admission.
        """
        if op == "append":
            records = request["messages"]

            def call_append():
                messages = [_message_from_record(record) for record in records]
                return self.session.append(messages)

            return call_append
        if op == "state":
            return self.session.state
        return self.session.digest

    # -- the single worker ---------------------------------------------

    def _deadline_for(self, op: str) -> float | None:
        if op == "append":
            return self.options.append_timeout
        if op == "digest":
            return self.options.digest_timeout
        return None

    def _ok_response(self, op: str, result) -> dict:
        if op == "append":
            return {"ok": True, "update": vars(result).copy()}
        return {"ok": True, op: result}

    def _error_response(self, error: BaseException) -> dict:
        if isinstance(error, (ValueError, KeyError, TypeError)):
            return _error(
                "invalid_request", f"{type(error).__name__}: {error}"
            )
        return _error("internal", f"{type(error).__name__}: {error}")

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            request = await self._queue.get()
            try:
                if request is None:
                    return
                self._set_gauges()
                deadline = self._deadline_for(request.op)
                started = loop.time()
                call = loop.run_in_executor(self._executor, request.fn)
                # An abandoned call's late exception must not surface as
                # an "exception never retrieved" warning.
                call.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
                try:
                    if deadline is not None:
                        result = await asyncio.wait_for(
                            asyncio.shield(call), deadline
                        )
                    else:
                        result = await call
                except (asyncio.TimeoutError, TimeoutError):
                    # The executor thread keeps running the abandoned op;
                    # the next queued op waits behind it in the executor.
                    response = _error(
                        "deadline_exceeded",
                        f"{request.op} did not finish within {deadline}s and "
                        "was abandoned (an append may still apply; retrying "
                        "is safe — replay deduplicates)",
                    )
                    self._count_request(request.op, "error")
                except asyncio.CancelledError:
                    if not request.future.done():
                        request.future.set_result(
                            _error("draining", "service exited before the "
                                   "request completed")
                        )
                    raise
                except Exception as error:
                    response = self._error_response(error)
                    self._count_request(request.op, "error")
                else:
                    response = self._ok_response(request.op, result)
                    self._count_request(request.op, "ok")
                duration = loop.time() - started
                self._ewma_seconds = 0.8 * self._ewma_seconds + 0.2 * duration
                self.metrics.histogram(
                    SERVE_OP_SECONDS_METRIC, help=_OP_SECONDS_HELP
                ).observe(duration, op=request.op)
                if not request.future.done():
                    request.future.set_result(response)
            finally:
                self._queue.task_done()

    # -- connection handling -------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._clients.add(writer)
        self._set_gauges()
        responses: asyncio.Queue = asyncio.Queue(
            maxsize=max(2, 2 * self.options.max_inflight)
        )
        self._response_queues.add(responses)
        writer_task = asyncio.create_task(self._write_responses(responses, writer))
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized or torn line: drop the client
                if not line:
                    break
                await responses.put(self._admit(line, client))
                if client.shutdown:
                    break
        finally:
            await responses.put(_EOF)
            try:
                await writer_task  # flush everything admitted, in order
            except Exception:
                pass
            self._response_queues.discard(responses)
            self._clients.discard(writer)
            self._set_gauges()
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            if task is not None:
                self._conn_tasks.discard(task)
            if client.shutdown:
                await self._drain(reason="shutdown")

    async def _write_responses(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write responses strictly in request order for one client.

        Keeps consuming after the connection breaks so the reader side
        can never deadlock against the bounded response queue.
        """
        broken = False
        while True:
            item = await responses.get()
            try:
                if item is _EOF:
                    return
                if isinstance(item, asyncio.Future):
                    try:
                        item = await item
                    except Exception:
                        continue
                if broken:
                    continue
                try:
                    writer.write((json.dumps(item) + "\n").encode())
                    await writer.drain()
                except (ConnectionError, RuntimeError, OSError):
                    broken = True
            finally:
                # task_done accounting lets _drain await the flush of
                # every already-admitted response before closing peers.
                responses.task_done()

    # -- lifecycle ------------------------------------------------------

    async def _drain(self, reason: str) -> None:
        """Stop admission, finish admitted work, close every peer, stop.

        Bounded by ``drain_timeout``: on expiry the worker is cancelled,
        still-queued requests answer ``draining``, and the service exits
        anyway (the abandoned executor op cannot be killed; the process
        hard-exits in :func:`run_server`).
        """
        if self._draining:
            return
        self._draining = True
        started = asyncio.get_running_loop().time()
        self.metrics.counter(SERVE_DRAINS_METRIC, help=_DRAINS_HELP).inc(
            reason=reason
        )
        if self._listener is not None:
            self._listener.close()
        try:
            await asyncio.wait_for(self._queue.join(), self.options.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self._drained_ok = False
        if self._worker_task is not None and not self._worker_task.done():
            if self._drained_ok:
                self._queue.put_nowait(None)  # empty queue: sentinel fits
                await self._worker_task
            else:
                self._worker_task.cancel()
                try:
                    await self._worker_task
                except asyncio.CancelledError:
                    pass
        # Requests still queued after a timed-out drain never ran.
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if request is not None and not request.future.done():
                request.future.set_result(
                    _error("draining", "service exited before the request ran")
                )
            self._queue.task_done()
        # An acked op is only done once its response reached the socket:
        # wait (inside the remaining drain budget) for every connection's
        # writer to flush what was already admitted, then close peers.
        flush_budget = max(
            0.1,
            self.options.drain_timeout
            - (asyncio.get_running_loop().time() - started),
        )
        pending = [queue.join() for queue in list(self._response_queues)]
        if pending:
            try:
                await asyncio.wait_for(asyncio.gather(*pending), flush_budget)
            except (asyncio.TimeoutError, TimeoutError):
                self._drained_ok = False
        for peer in list(self._clients):
            peer.close()
        # Let the connection handlers run their teardown (EOF → writer
        # flush → wait_closed) before the loop exits, or asyncio.run()
        # cancels them mid-finally and logs spurious CancelledErrors.
        teardown = [
            task
            for task in list(self._conn_tasks)
            if task is not asyncio.current_task() and not task.done()
        ]
        if teardown:
            remaining = max(
                0.1,
                self.options.drain_timeout
                - (asyncio.get_running_loop().time() - started),
            )
            _, still_pending = await asyncio.wait(teardown, timeout=remaining)
            if still_pending:
                self._drained_ok = False
        self._stopped.set()

    async def serve(self, host: str, port: int) -> bool:
        """Run until drained; returns False when the drain timed out."""
        loop = asyncio.get_running_loop()
        self._worker_task = asyncio.create_task(self._worker())
        server = await asyncio.start_server(
            self.handle, host, port, limit=self.options.max_line_bytes
        )
        self._listener = server
        bound = server.sockets[0].getsockname()
        print(
            json.dumps({"event": "listening", "host": bound[0], "port": bound[1]}),
            flush=True,
        )
        installed = self._install_signal_handlers(loop)
        try:
            await self._stopped.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            server.close()
            try:
                await server.wait_closed()
            except Exception:
                pass
            if self._worker_task is not None and not self._worker_task.done():
                self._worker_task.cancel()
            self._executor.shutdown(wait=False)
        return self._drained_ok

    def _install_signal_handlers(self, loop) -> list[signal.Signals]:
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig,
                    lambda s=sig: asyncio.ensure_future(
                        self._drain(reason=signal.Signals(s).name)
                    ),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread or unsupported platform
            installed.append(sig)
        return installed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve an incremental analysis session over TCP (JSON lines)",
        parents=[service_parent()],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, reported on stdout)")
    parser.add_argument("--protocol", default="unknown", help="protocol label")
    parser.add_argument("--segmenter", default="nemesys",
                        help="per-message segmenter name")
    parser.add_argument("--checkpoint",
                        help="journal chunks here; restart resumes mid-capture")
    parser.add_argument("--recluster-fraction", type=float, default=None,
                        help="appended fraction that forces a reclustering")
    parser.add_argument("--epsilon-tolerance", type=float, default=None,
                        help="relative epsilon drift that forces a reclustering")
    return parser


def make_session(
    args,
    config: ClusteringConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> AnalysisSession:
    kwargs: dict = {}
    if args.recluster_fraction is not None:
        kwargs["recluster_fraction"] = args.recluster_fraction
    if args.epsilon_tolerance is not None:
        kwargs["epsilon_tolerance"] = args.epsilon_tolerance
    return AnalysisSession(
        config,
        segmenter=args.segmenter,
        protocol=args.protocol,
        checkpoint_path=args.checkpoint,
        wal_max_bytes=getattr(args, "wal_max_bytes", None),
        metrics=metrics,
        **kwargs,
    )


def service_options_from_args(args) -> ServiceOptions:
    """Translate the ``service_parent`` flags into :class:`ServiceOptions`."""
    max_rss_mb = getattr(args, "max_rss_mb", None)
    return ServiceOptions(
        queue_depth=getattr(args, "queue_depth", 64),
        max_inflight=getattr(args, "max_inflight", 8),
        append_timeout=getattr(args, "append_timeout", None),
        digest_timeout=getattr(args, "digest_timeout", None),
        drain_timeout=getattr(args, "drain_timeout", 10.0),
        max_line_bytes=getattr(args, "max_line_bytes", DEFAULT_MAX_LINE_BYTES),
        memory_limit_bytes=(
            max_rss_mb * 1024 * 1024 if max_rss_mb is not None else None
        ),
    )


def run_server(args, config: ClusteringConfig | None = None) -> int:
    # The library imports its spline module when it first clusters; load
    # it before listening, so the first append that reclusters does not
    # pay the import (about 0.3 s) inside its reply time.
    import scipy.interpolate  # noqa: F401

    metrics = MetricsRegistry()
    session = make_session(args, config, metrics=metrics)
    server = SessionServer(session, service_options_from_args(args), metrics)
    exit_code = 0
    drained = True
    error: BaseException | None = None
    try:
        drained = asyncio.run(server.serve(args.host, args.port))
        if not drained:
            print(
                "repro-serve: drain timed out; abandoning in-flight work",
                file=sys.stderr,
            )
            exit_code = 1
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        # Surface the original failure even if session.close() below
        # also raises — the first error is the one that matters.
        error = exc
        print(
            f"repro-serve: fatal: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        exit_code = 1
    finally:
        try:
            session.close()
        except Exception as close_error:
            print(
                "repro-serve: session close failed: "
                f"{type(close_error).__name__}: {close_error}",
                file=sys.stderr,
            )
            if error is not None:
                print(
                    f"repro-serve: first error was: {type(error).__name__}: "
                    f"{error}",
                    file=sys.stderr,
                )
            exit_code = exit_code or 1
    if getattr(args, "metrics_out", None):
        try:
            write_prometheus(args.metrics_out, metrics)
        except OSError as exc:
            print(f"repro-serve: metrics write failed: {exc}", file=sys.stderr)
    if not drained:
        # A timed-out drain can leave a hung session op on a non-daemon
        # executor thread; interpreter shutdown would join it forever.
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(exit_code)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return run_server(args)


if __name__ == "__main__":
    sys.exit(main())
