"""Incremental analysis sessions: absorb messages without rebuilding the world.

:class:`AnalysisSession` is the stateful counterpart of
:func:`repro.api.run_analysis`: messages arrive in chunks via
:meth:`~AnalysisSession.append`, and the session grows its dissimilarity
matrix in place (:class:`~repro.core.matrix.AppendableMatrix` computes
only the new-vs-old rectangles and the new-vs-new diagonal through the
same row-tile engine as a batch build), folds the
new columns into the cached k-NN partition with a rank-k merge, and
re-runs the post-matrix stages (autoconf → DBSCAN → refinement) only
when a **drift gate** trips:

- no clustering exists yet,
- the fraction of matrix rows appended since the last reclustering
  exceeds :attr:`~AnalysisSession.recluster_fraction`, or
- a fresh epsilon estimate (cheap — the k-NN columns are cached)
  deviates from the clustered epsilon by more than
  :attr:`~AnalysisSession.epsilon_tolerance` relative.

Between reclusterings, new unique segments carry **provisional**
labels: the cluster of their nearest confirmed segment within the
clustered epsilon, or noise.  Provisional labels are a cheap live view;
:meth:`~AnalysisSession.snapshot` always reconciles (recluster over the
grown matrix) before returning, so a snapshot is bit-identical — matrix
bytes, epsilon, cluster membership — to a batch
:func:`~repro.api.run_analysis` over the concatenation of everything
appended.

Sessions optionally journal every appended chunk to a
:class:`SessionCheckpoint` (JSON-lines, the PR 3 checkpoint idiom:
schema + config fingerprint per line, forgiving load).  The chunk is
fsynced *before* it mutates session state, so a process killed mid-
append replays to the same state — deduplication makes replay
idempotent.  ``repro-serve`` (:mod:`repro.serve`) rides on this to
survive SIGKILL mid-capture.

Long-lived sessions bound their journal with **compaction**: when the
live WAL crosses ``wal_max_bytes`` the session archives the WAL
segment, writes a checksummed snapshot of every kept message
(``repro.session-snapshot/v1``, temp-file + atomic rename), and
truncates the live WAL — in that order, so a crash at *any* point
between the steps still recovers (replay is idempotent, so overlap
between snapshot and un-truncated WAL is harmless).  A restart then
loads the snapshot and replays only the WAL tail; a snapshot whose
checksum or fingerprint fails validation is ignored and recovery falls
back to the full journal (archive + live WAL).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.autoconf import configure
from repro.core.matrix import AppendableMatrix
from repro.core.pipeline import ClusteringConfig, ClusteringResult, FieldTypeClusterer
from repro.core.segments import Segment, UniqueSegment
from repro.errors import QuarantineReport
from repro.net.trace import Trace, TraceMessage, load_trace
from repro.obs.export import config_fingerprint, jsonable
from repro.obs.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.segmenters.base import Segmenter
from repro.segmenters.registry import resolve_segmenter
from repro.semantics import deduce_semantics

SESSION_APPENDS_METRIC = "repro_session_appends_total"
SESSION_RECLUSTERS_METRIC = "repro_session_reclusters_total"
SESSION_REPLAYED_METRIC = "repro_session_replayed_chunks_total"
SESSION_COMPACTIONS_METRIC = "repro_session_compactions_total"
SESSION_COMPACTION_FAILURES_METRIC = "repro_session_compaction_failures_total"
SESSION_SNAPSHOT_FALLBACKS_METRIC = "repro_session_snapshot_fallbacks_total"
SESSION_WAL_BYTES_METRIC = "repro_session_wal_bytes"

_APPENDS_HELP = "Chunks appended to incremental analysis sessions."
_RECLUSTERS_HELP = (
    "Full post-matrix reclusterings run by analysis sessions "
    "(reason: initial/appended_fraction/epsilon_drift/snapshot)."
)
_REPLAYED_HELP = "Journal chunks replayed on session resume (source: wal/archive)."
_COMPACTIONS_HELP = "WAL compactions (snapshot written, live WAL truncated)."
_COMPACTION_FAILURES_HELP = (
    "Compactions aborted by I/O errors (WAL kept; retried on the next append)."
)
_SNAPSHOT_FALLBACKS_HELP = (
    "Resumes that ignored an unusable snapshot (status: corrupt/mismatch) "
    "and fell back to full-journal replay."
)
_WAL_BYTES_HELP = "Live write-ahead-journal size in bytes."

CHECKPOINT_SCHEMA = "repro.session-checkpoint/v1"
SNAPSHOT_SCHEMA = "repro.session-snapshot/v1"

#: Extra k-NN columns primed beyond the current autoconf need
#: (``k_hi = max(2, round(ln n))``), so the cached width keeps covering
#: the logarithmically growing k across appends and the rank-k merge
#: never falls back to a full re-partition.
KNN_SLACK = 8

#: Default drift-gate thresholds (see the module docstring).
DEFAULT_RECLUSTER_FRACTION = 0.2
DEFAULT_EPSILON_TOLERANCE = 0.05


@dataclass(frozen=True)
class SessionUpdate:
    """What one :meth:`AnalysisSession.append` call changed."""

    #: Messages accepted (after dropping empties and duplicates).
    appended_messages: int
    #: Messages discarded as byte-identical to earlier ones (or empty).
    dropped_messages: int
    #: New unique analyzable segments (= matrix rows added).
    new_unique_segments: int
    #: Whether the drift gate tripped and a full reclustering ran.
    reclustered: bool
    #: Gate verdict: "initial", "appended_fraction", "epsilon_drift",
    #: "stable" (provisional labels only), or "empty" (nothing to do).
    reason: str
    #: Unique segments currently carrying provisional labels.
    provisional_segments: int
    #: Clusters in the current (confirmed) clustering, if any.
    cluster_count: int | None
    #: Epsilon of the current (confirmed) clustering, if any.
    epsilon: float | None


#: The JSON images of ``ClusteringConfig()`` and ``MatrixBuildOptions()``
#: that journals written before defaulted fields left the fingerprint
#: hashed in full (the config then still had ``neighborhoods``).  Frozen
#: here, not derived from the classes, so those journals keep replaying
#: whatever fields the classes gain or lose later.
_V1_CONFIG_IMAGE = {
    "penalty_factor": 0.6,
    "sensitivity": 1.0,
    "smoothness": None,
    "eps_rho_threshold": 0.01,
    "neighbor_density_threshold": 0.002,
    "merge": True,
    "split": True,
    "link_cap_factor": 1.5,
    "min_segment_length": 2,
    "giant_cluster_fraction": 0.6,
    "extreme_cluster_fraction": 0.9,
    "max_retrims": 3,
    "fixed_epsilon": None,
    "weighted_density": False,
    "matrix_options": None,
    "neighborhoods": "csr",
    "refinement": "none",
    "memory_bound_bytes": None,
}
_V1_MATRIX_OPTIONS_IMAGE = {
    "workers": None,
    "use_cache": False,
    "cache_dir": None,
    "parallel_threshold": 512,
    "dtype": "float64",
    "storage": "ram",
}


def session_fingerprint(
    config: ClusteringConfig, segmenter_name: str, protocol: str
) -> str:
    """Fingerprint identifying one session's analysis inputs.

    A checkpoint line is only replayed into a session with the same
    clustering config, segmenter, and protocol label — resuming with
    different analysis parameters must not silently mix states.  Config
    fields at their defaults stay out of it (see
    :func:`repro.obs.export.config_fingerprint`).
    """
    return config_fingerprint(
        {
            "schema": CHECKPOINT_SCHEMA,
            "config": config,
            "segmenter": segmenter_name,
            "protocol": protocol,
        }
    )


def _v1_session_fingerprint(
    config: ClusteringConfig, segmenter_name: str, protocol: str
) -> str:
    """The fingerprint journals written before defaulted fields left the
    hash carry for the same inputs: every field of the config, defaults
    taken from the frozen :data:`_V1_CONFIG_IMAGE`."""
    image = {**_V1_CONFIG_IMAGE, **jsonable(config, defaults=False)}
    if image["matrix_options"] is not None:
        image["matrix_options"] = {
            **_V1_MATRIX_OPTIONS_IMAGE,
            **image["matrix_options"],
        }
    # A plain dict has no defaults to leave out: it hashes as it is.
    return session_fingerprint(image, segmenter_name, protocol)


def _message_to_record(message: TraceMessage) -> dict:
    record: dict = {"data": message.data.hex()}
    if message.timestamp:
        record["timestamp"] = message.timestamp
    if message.src_ip is not None:
        record["src_ip"] = message.src_ip.hex()
    if message.dst_ip is not None:
        record["dst_ip"] = message.dst_ip.hex()
    if message.src_port is not None:
        record["src_port"] = message.src_port
    if message.dst_port is not None:
        record["dst_port"] = message.dst_port
    if message.direction is not None:
        record["direction"] = message.direction
    return record


def _message_from_record(record: dict) -> TraceMessage:
    src_ip = record.get("src_ip")
    dst_ip = record.get("dst_ip")
    return TraceMessage(
        data=bytes.fromhex(record["data"]),
        timestamp=float(record.get("timestamp", 0.0)),
        src_ip=bytes.fromhex(src_ip) if src_ip is not None else None,
        dst_ip=bytes.fromhex(dst_ip) if dst_ip is not None else None,
        src_port=record.get("src_port"),
        dst_port=record.get("dst_port"),
        direction=record.get("direction"),
    )


class SessionCheckpoint:
    """Write-ahead journal of appended chunks (JSON lines).

    One line per chunk, stamped with the session fingerprint::

        {"schema": "repro.session-checkpoint/v1", "fingerprint": "…",
         "chunk": 3, "messages": [{"data": "…hex…", …}, …]}

    Lines and snapshots are written with *fingerprint*; reading also
    accepts the *legacy_fingerprints*, which earlier versions wrote for
    the same inputs.

    :meth:`record_chunk` appends, flushes, **and fsyncs** before
    returning — the session journals a chunk before mutating any state,
    so a SIGKILL at any point leaves a journal whose replay reproduces
    the state (append is deterministic and deduplicating, hence
    idempotent under replay of a chunk that was partially applied).
    Loading is forgiving like every repro checkpoint: torn tail lines
    and foreign content are skipped, not fatal.

    With *wal_max_bytes* set, the session compacts once the live WAL
    grows past it (:meth:`rotate`): the WAL segment is appended to the
    ``<path>.archive`` file, a checksummed snapshot of every kept
    message is written to ``<path>.snapshot`` via temp-file + atomic
    rename, and the live WAL is truncated — in that order, so every
    crash window either leaves the snapshot + live WAL pair complete or
    leaves the archive + live WAL pair complete (replay deduplicates,
    so overlap is harmless).  The archive is cold storage: it is only
    read when a snapshot fails validation.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        *,
        wal_max_bytes: int | None = None,
        legacy_fingerprints: Iterable[str] = (),
    ):
        if wal_max_bytes is not None and wal_max_bytes <= 0:
            raise ValueError("wal_max_bytes must be > 0")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._accepted = {fingerprint, *legacy_fingerprints}
        self.wal_max_bytes = wal_max_bytes
        self.snapshot_path = Path(str(path) + ".snapshot")
        self.archive_path = Path(str(path) + ".archive")

    def wal_bytes(self) -> int:
        """Current size of the live WAL in bytes (0 when absent)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def load_chunks(self) -> list[list[TraceMessage]]:
        """Chunks recorded in the live WAL for this fingerprint, in order."""
        return self._read_chunks(self.path)

    def load_archive_chunks(self) -> list[list[TraceMessage]]:
        """Chunks in the compaction archive (full-journal fallback)."""
        return self._read_chunks(self.archive_path)

    def _read_chunks(self, path: Path) -> list[list[TraceMessage]]:
        chunks: list[list[TraceMessage]] = []
        try:
            text = path.read_text(errors="replace")
        except (FileNotFoundError, OSError):
            return chunks
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if (
                    payload.get("schema") != CHECKPOINT_SCHEMA
                    or payload.get("fingerprint") not in self._accepted
                ):
                    continue
                messages = [
                    _message_from_record(record) for record in payload["messages"]
                ]
            except (ValueError, KeyError, TypeError):
                continue  # torn tail line or foreign content
            chunks.append(messages)
        return chunks

    def record_chunk(self, chunk_index: int, messages: list[TraceMessage]) -> None:
        """Durably append one chunk (write + flush + fsync)."""
        line = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": self.fingerprint,
                "chunk": chunk_index,
                "messages": [_message_to_record(m) for m in messages],
            },
            sort_keys=True,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- compaction ---------------------------------------------------

    @staticmethod
    def _payload_checksum(payload: dict) -> str:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()

    def load_snapshot(self) -> tuple[str, list[TraceMessage] | None]:
        """Validate and load the snapshot: ``(status, messages)``.

        *status* is ``"ok"`` (messages returned), ``"missing"``,
        ``"corrupt"`` (torn file, failed checksum, undecodable
        records), or ``"mismatch"`` (a healthy snapshot from a session
        with different analysis parameters).  Anything but ``"ok"``
        means the caller must fall back to full-journal replay.
        """
        try:
            text = self.snapshot_path.read_text()
        except (FileNotFoundError, OSError):
            return "missing", None
        except UnicodeDecodeError:  # binary garbage where JSON should be
            return "corrupt", None
        try:
            document = json.loads(text)
            payload = document["payload"]
            if document.get("checksum") != self._payload_checksum(payload):
                return "corrupt", None
            if payload.get("schema") != SNAPSHOT_SCHEMA:
                return "corrupt", None
            if payload.get("fingerprint") not in self._accepted:
                return "mismatch", None
            messages = [
                _message_from_record(record) for record in payload["messages"]
            ]
        except (ValueError, KeyError, TypeError):
            return "corrupt", None
        return "ok", messages

    def write_snapshot(
        self, messages: list[TraceMessage], meta: dict | None = None
    ) -> None:
        """Durably replace the snapshot (temp file + atomic rename)."""
        payload = {
            "schema": SNAPSHOT_SCHEMA,
            "fingerprint": self.fingerprint,
            "messages": [_message_to_record(m) for m in messages],
            "meta": dict(meta or {}),
        }
        document = json.dumps(
            {"checksum": self._payload_checksum(payload), "payload": payload},
            sort_keys=True,
        )
        self.snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(str(self.snapshot_path) + ".tmp")
        try:
            with open(tmp, "w") as handle:
                handle.write(document + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.snapshot_path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self.snapshot_path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - e.g. non-unix
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    def rotate(self, messages: list[TraceMessage], meta: dict | None = None) -> None:
        """Compact: archive the live WAL, snapshot *messages*, truncate.

        The order is what makes a crash at any point recoverable:

        1. append the live WAL bytes to the archive (fsync) — from here
           the full journal survives even if the snapshot write tears;
        2. write the snapshot atomically — from here restarts take the
           fast path (snapshot + WAL tail);
        3. truncate the live WAL (fsync) — the tail is now empty.

        A crash between any two steps leaves duplicate coverage, never
        a gap; replay deduplication makes duplicates harmless.
        """
        try:
            data = self.path.read_bytes()
        except (FileNotFoundError, OSError):
            data = b""
        if data:
            with open(self.archive_path, "ab") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        self.write_snapshot(messages, meta)
        with open(self.path, "w") as handle:
            handle.flush()
            os.fsync(handle.fileno())


class AnalysisSession:
    """Stateful incremental analysis over an arriving message stream.

    Example::

        from repro import AnalysisSession

        with AnalysisSession(protocol="mystery") as session:
            for chunk in capture_chunks:
                update = session.append(chunk)
                if update.reclustered:
                    print("reclustered:", update.reason)
            run = session.snapshot()        # == batch run_analysis(...)
            print(run.report.render())

    Only per-message segmenters are supported
    (``segmenter_cls.incremental`` — trace-global strategies like
    netzob/csp would make chunked segmentation diverge from a batch
    pass).  Pass ``checkpoint_path`` to journal every chunk and resume
    after a crash; see :class:`SessionCheckpoint`.
    """

    def __init__(
        self,
        config: ClusteringConfig | None = None,
        *,
        segmenter: str | Segmenter = "nemesys",
        protocol: str = "unknown",
        port: int | None = None,
        semantics: bool = False,
        msgtypes: bool = False,
        statemachine: bool = False,
        recluster_fraction: float = DEFAULT_RECLUSTER_FRACTION,
        epsilon_tolerance: float = DEFAULT_EPSILON_TOLERANCE,
        checkpoint_path: str | Path | None = None,
        wal_max_bytes: int | None = None,
        resume: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ClusteringConfig()
        self._segmenter = resolve_segmenter(
            segmenter, refinement=self.config.refinement, config=self.config
        )
        if not getattr(self._segmenter, "incremental", False):
            raise ValueError(
                f"segmenter {self._segmenter.name!r} segments the trace "
                "globally and cannot run incrementally; use a per-message "
                "segmenter (e.g. 'nemesys')"
            )
        self.protocol = protocol
        self.port = port
        self.semantics = semantics
        self.msgtypes = msgtypes or statemachine
        self.statemachine = statemachine
        if recluster_fraction <= 0:
            raise ValueError("recluster_fraction must be > 0")
        if epsilon_tolerance < 0:
            raise ValueError("epsilon_tolerance must be >= 0")
        self.recluster_fraction = float(recluster_fraction)
        self.epsilon_tolerance = float(epsilon_tolerance)
        self._tracer = tracer
        self._metrics = metrics

        #: Kept (non-empty, deduplicated) messages, in arrival order —
        #: byte-for-byte what ``Trace.preprocess()`` would keep.
        self._messages: list[TraceMessage] = []
        self._seen: set[bytes] = set()
        #: Every concrete segment emitted so far (AnalysisRun.segments).
        self._segments: list[Segment] = []
        #: data -> occurrences, insertion = global first-occurrence
        #: order; mirrors ``unique_segments(segments, min_length=1)``.
        self._registry: dict[bytes, list[Segment]] = {}
        #: data -> matrix row, for the analyzable unique segments.
        self._rows: dict[bytes, int] = {}
        #: Matrix rows whose occurrence lists grew since the last
        #: refresh (see :meth:`_refresh_segments`).
        self._grown: set[int] = set()
        self._appendable: AppendableMatrix | None = None
        self._result: ClusteringResult | None = None
        #: Matrix rows covered by the confirmed clustering.
        self._confirmed_rows = 0
        self._rows_since_recluster = 0
        self._dirty = False
        self._provisional: dict[int, int] = {}
        self._appends = 0
        self._reclusters = 0
        self._compactions = 0
        self._quarantines: list[QuarantineReport] = []
        self._closed = False
        #: How the last resume reconstructed state: snapshot status plus
        #: journal chunks replayed per source (the chaos suite asserts
        #: a post-compaction restart replays only the WAL tail).
        self.replayed: dict = {
            "snapshot": "none",
            "snapshot_messages": 0,
            "wal_chunks": 0,
            "archive_chunks": 0,
        }

        self._checkpoint: SessionCheckpoint | None = None
        if checkpoint_path is not None:
            inputs = (self.config, self._segmenter.name, protocol)
            self._checkpoint = SessionCheckpoint(
                checkpoint_path,
                session_fingerprint(*inputs),
                wal_max_bytes=wal_max_bytes,
                legacy_fingerprints=(_v1_session_fingerprint(*inputs),),
            )
            if resume:
                self._replay()

    def _replay(self) -> None:
        """Rebuild state on resume: snapshot + WAL tail, or full journal.

        A trusted snapshot is ingested as one deduplicating chunk (the
        reconciled state is chunking-invariant), then only the live WAL
        is replayed on top.  A missing/corrupt/mismatched snapshot falls
        back to the full journal: the compaction archive followed by the
        live WAL.
        """
        checkpoint = self._checkpoint
        status, snapshot_messages = checkpoint.load_snapshot()
        self.replayed["snapshot"] = status
        with self._scopes():
            if status == "ok":
                self._ingest(snapshot_messages)
                self.replayed["snapshot_messages"] = len(snapshot_messages)
            else:
                if status in ("corrupt", "mismatch"):
                    get_metrics().counter(
                        SESSION_SNAPSHOT_FALLBACKS_METRIC,
                        help=_SNAPSHOT_FALLBACKS_HELP,
                    ).inc(status=status)
                for messages in checkpoint.load_archive_chunks():
                    self._ingest(messages)
                    self._appends += 1
                    self.replayed["archive_chunks"] += 1
            for messages in checkpoint.load_chunks():
                self._ingest(messages)
                self._appends += 1
                self.replayed["wal_chunks"] += 1
            replayed = get_metrics().counter(
                SESSION_REPLAYED_METRIC, help=_REPLAYED_HELP
            )
            if self.replayed["archive_chunks"]:
                replayed.inc(self.replayed["archive_chunks"], source="archive")
            if self.replayed["wal_chunks"]:
                replayed.inc(self.replayed["wal_chunks"], source="wal")

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Mark the session closed; further appends/snapshots raise."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("analysis session is closed")

    def _scopes(self) -> ExitStack:
        """Bind the session's tracer/metrics sinks (no-op when unset)."""
        stack = ExitStack()
        if self._tracer is not None:
            stack.enter_context(use_tracer(self._tracer))
        if self._metrics is not None:
            stack.enter_context(use_metrics(self._metrics))
        return stack

    # -- introspection ------------------------------------------------

    @property
    def message_count(self) -> int:
        """Kept (deduplicated, non-empty) messages so far."""
        return len(self._messages)

    @property
    def unique_segment_count(self) -> int:
        """Analyzable unique segments (= matrix rows) so far."""
        return len(self._appendable) if self._appendable is not None else 0

    @property
    def appends(self) -> int:
        return self._appends

    @property
    def reclusters(self) -> int:
        return self._reclusters

    @property
    def compactions(self) -> int:
        """WAL compactions (snapshot written + live WAL truncated) so far."""
        return self._compactions

    def wal_bytes(self) -> int | None:
        """Live WAL size in bytes, or None when not journaling."""
        return self._checkpoint.wal_bytes() if self._checkpoint else None

    @property
    def result(self) -> ClusteringResult | None:
        """The last confirmed clustering (None before the first one)."""
        return self._result

    def labels(self) -> np.ndarray:
        """Per-matrix-row labels: confirmed where clustered, provisional
        (nearest confirmed cluster within epsilon, else -1) for rows
        appended since."""
        count = self.unique_segment_count
        labels = np.full(count, -1, dtype=np.int64)
        if self._result is not None:
            confirmed = self._result.labels()
            labels[: len(confirmed)] = confirmed
        for row, label in self._provisional.items():
            labels[row] = label
        return labels

    def state(self) -> dict:
        """JSON-ready summary of the live cluster state (service polls)."""
        result = self._result
        return {
            "messages": self.message_count,
            "unique_segments": self.unique_segment_count,
            "appends": self._appends,
            "reclusters": self._reclusters,
            "clusters": result.cluster_count if result is not None else None,
            "noise": int(len(result.noise)) if result is not None else None,
            "epsilon": float(result.epsilon) if result is not None else None,
            "provisional_segments": len(self._provisional),
            "dirty": self._dirty,
            "wal_bytes": self.wal_bytes(),
            "compactions": self._compactions,
            "replayed": dict(self.replayed),
        }

    def digest(self) -> dict:
        """Comparable fingerprint of the session's cluster state.

        Reconciles first (recluster when dirty), so two sessions that
        absorbed the same messages — in any chunking, through any
        number of restarts or compactions — report identical digests.
        Raises :class:`ValueError` before any analyzable segment
        arrived.
        """
        self._check_open()
        with self._scopes():
            if self._appendable is None:
                raise ValueError(
                    "no analyzable segments appended yet"
                    if self._messages
                    else "no messages appended yet"
                )
            if self._dirty or self._result is None:
                self._recluster("snapshot")
            result = self._result
            clusters = sorted(
                sorted(int(i) for i in members) for members in result.clusters
            )
            cluster_sha = hashlib.sha256(
                json.dumps(clusters, separators=(",", ":")).encode()
            ).hexdigest()
            return {
                "messages": self.message_count,
                "unique_segments": self.unique_segment_count,
                "matrix_sha256": self._matrix_sha(),
                "clusters_sha256": cluster_sha,
                "cluster_count": result.cluster_count,
                "epsilon": float(result.epsilon),
            }

    def _matrix_sha(self) -> str | None:
        """SHA-256 of the clustered matrix's bytes, hashed from one
        contiguous copy of the live view (hashlib reads its buffer)."""
        if self._result is None:
            return None
        return hashlib.sha256(
            np.ascontiguousarray(self._result.matrix.values)
        ).hexdigest()

    # -- the incremental core -----------------------------------------

    def append(
        self,
        messages_or_trace: Trace | str | Path | Iterable[TraceMessage | bytes],
        *,
        strict: bool = True,
    ) -> SessionUpdate:
        """Absorb a chunk of messages; returns what changed.

        Accepts a :class:`Trace`, a pcap/pcapng path (loaded with the
        session's protocol/port; ``strict=False`` quarantines malformed
        records like :func:`repro.api.run_analysis`), or an iterable of
        :class:`TraceMessage` / raw ``bytes`` payloads.
        """
        self._check_open()
        messages = self._coerce(messages_or_trace, strict=strict)
        with self._scopes():
            if self._checkpoint is not None:
                # WAL: the chunk is durable before any state changes, so
                # a kill mid-append replays to the identical state.
                self._checkpoint.record_chunk(self._appends, messages)
            with get_tracer().span(
                "session.append", messages=len(messages)
            ) as span:
                update = self._ingest(messages)
                self._appends += 1
                span.set(
                    appended=update.appended_messages,
                    new_rows=update.new_unique_segments,
                    reclustered=update.reclustered,
                    reason=update.reason,
                )
                if self._maybe_compact():
                    span.set(compacted=True)
            get_metrics().counter(
                SESSION_APPENDS_METRIC, help=_APPENDS_HELP
            ).inc()
        return update

    def _coerce(
        self,
        messages_or_trace: Trace | str | Path | Iterable[TraceMessage | bytes],
        strict: bool,
    ) -> list[TraceMessage]:
        if isinstance(messages_or_trace, (str, Path)):
            messages_or_trace = load_trace(
                messages_or_trace,
                protocol=self.protocol,
                port=self.port,
                strict=strict,
            )
        if isinstance(messages_or_trace, Trace):
            if messages_or_trace.quarantine:
                self._quarantines.append(messages_or_trace.quarantine)
            return list(messages_or_trace.messages)
        coerced = []
        for item in messages_or_trace:
            if isinstance(item, TraceMessage):
                coerced.append(item)
            elif isinstance(item, (bytes, bytearray, memoryview)):
                coerced.append(TraceMessage(data=bytes(item)))
            else:
                raise TypeError(
                    f"cannot append {type(item).__name__}; expected "
                    "TraceMessage or bytes"
                )
        return coerced

    def _ingest(self, messages: list[TraceMessage]) -> SessionUpdate:
        """Dedup → segment → grow matrix → drift gate.  No journaling."""
        kept = []
        for message in messages:
            if not message.data or message.data in self._seen:
                continue
            self._seen.add(message.data)
            kept.append(message)
        offset = len(self._messages)
        self._messages.extend(kept)
        if not kept:
            return self._update(0, len(messages), 0, False, "empty")

        chunk = Trace(messages=kept, protocol=self.protocol)
        segments = self._segmenter.segment(chunk)
        if offset:
            # Chunk-local message indices -> stream-global ones; with a
            # per-message segmenter this is the only difference from
            # segmenting the whole stream at once.
            segments = [
                Segment(s.message_index + offset, s.offset, s.data, s.ftype)
                for s in segments
            ]
        self._segments.extend(segments)

        min_length = self.config.min_segment_length
        fresh: list[bytes] = []
        for segment in segments:
            if not segment.data:
                continue
            occurrences = self._registry.get(segment.data)
            if occurrences is None:
                self._registry[segment.data] = [segment]
                fresh.append(segment.data)
            else:
                occurrences.append(segment)
                row = self._rows.get(segment.data)
                if row is not None:
                    self._grown.add(row)
        new_uniques = [
            UniqueSegment(data=data, occurrences=tuple(self._registry[data]))
            for data in fresh
            if len(data) >= min_length
        ]

        if new_uniques:
            first_row = self.unique_segment_count
            for row, unique in enumerate(new_uniques, first_row):
                self._rows[unique.data] = row
            if self._appendable is None:
                self._appendable = AppendableMatrix(
                    new_uniques,
                    penalty_factor=self.config.penalty_factor,
                    options=self.config.matrix_options,
                    memory_bound_bytes=self.config.memory_bound_bytes,
                )
            else:
                self._appendable.append(new_uniques)
            self._rows_since_recluster += len(new_uniques)
            self._prime_knn()
        self._dirty = True

        if self._appendable is None:
            return self._update(len(kept), len(messages) - len(kept), 0, False, "empty")
        should, reason = self._drift_gate()
        if should:
            self._recluster(reason)
            return self._update(
                len(kept), len(messages) - len(kept), len(new_uniques), True, reason
            )
        self._label_provisional()
        return self._update(
            len(kept), len(messages) - len(kept), len(new_uniques), False, reason
        )

    def _update(
        self,
        appended: int,
        dropped: int,
        new_rows: int,
        reclustered: bool,
        reason: str,
    ) -> SessionUpdate:
        result = self._result
        return SessionUpdate(
            appended_messages=appended,
            dropped_messages=dropped,
            new_unique_segments=new_rows,
            reclustered=reclustered,
            reason=reason,
            provisional_segments=len(self._provisional),
            cluster_count=result.cluster_count if result is not None else None,
            epsilon=float(result.epsilon) if result is not None else None,
        )

    def _maybe_compact(self) -> bool:
        """Rotate the WAL into a snapshot once it outgrows the bound.

        Compaction is opportunistic: an I/O failure (full disk, dead
        volume) leaves the WAL untouched — the append that triggered it
        is already journaled and applied — and is simply retried on the
        next append; only the failure counter betrays it.
        """
        checkpoint = self._checkpoint
        if checkpoint is None:
            return False
        wal_bytes = checkpoint.wal_bytes()
        get_metrics().gauge(SESSION_WAL_BYTES_METRIC, help=_WAL_BYTES_HELP).set(
            wal_bytes
        )
        if checkpoint.wal_max_bytes is None or wal_bytes <= checkpoint.wal_max_bytes:
            return False
        meta = {
            "messages": len(self._messages),
            "unique_segments": self.unique_segment_count,
            "appends": self._appends,
            "matrix_sha256": None if self._dirty else self._matrix_sha(),
            "created_unix": time.time(),
        }
        try:
            with get_tracer().span("session.compact", wal_bytes=wal_bytes):
                checkpoint.rotate(list(self._messages), meta)
        except OSError:
            get_metrics().counter(
                SESSION_COMPACTION_FAILURES_METRIC, help=_COMPACTION_FAILURES_HELP
            ).inc()
            return False
        self._compactions += 1
        get_metrics().counter(
            SESSION_COMPACTIONS_METRIC, help=_COMPACTIONS_HELP
        ).inc()
        get_metrics().gauge(SESSION_WAL_BYTES_METRIC, help=_WAL_BYTES_HELP).set(
            checkpoint.wal_bytes()
        )
        return True

    def _prime_knn(self) -> None:
        """Keep the k-NN column cache wide enough for merges + autoconf."""
        count = len(self._appendable)
        if count < 4:
            return  # autoconf's degenerate path needs no columns
        k_hi = min(max(2, round(math.log(count))), count - 1)
        k_prime = min(count - 1, k_hi + KNN_SLACK)
        self._appendable.matrix.knn_distances_all(
            k_prime,
            self.config.memory_bound_bytes,
            self._appendable.options.effective_workers(),
        )

    def _drift_gate(self) -> tuple[bool, str]:
        """Should this append trigger a full reclustering, and why."""
        if self._result is None or not self._confirmed_rows:
            return True, "initial"
        if not self._rows_since_recluster:
            return False, "stable"
        fraction = self._rows_since_recluster / self._confirmed_rows
        if fraction > self.recluster_fraction:
            return True, "appended_fraction"
        base = self._result.autoconfig.epsilon
        if base > 0 and len(self._appendable) >= 4:
            estimate = configure(
                self._appendable.matrix,
                sensitivity=self.config.sensitivity,
                smoothness=self.config.smoothness,
                memory_bound_bytes=self.config.memory_bound_bytes,
                workers=self._appendable.options.effective_workers(),
            ).epsilon
            if abs(estimate - base) > self.epsilon_tolerance * base:
                return True, "epsilon_drift"
        return False, "stable"

    def _recluster(self, reason: str) -> None:
        """Refresh occurrences and re-run the post-matrix stages."""
        self._refresh_segments()
        min_length = self.config.min_segment_length
        excluded = [
            UniqueSegment(data=data, occurrences=tuple(occurrences))
            for data, occurrences in self._registry.items()
            if len(data) < min_length
        ]
        with get_tracer().span(
            "session.recluster", rows=len(self._appendable), reason=reason
        ):
            self._result = FieldTypeClusterer(self.config).cluster_matrix(
                self._appendable.matrix, excluded=excluded
            )
        self._confirmed_rows = len(self._appendable)
        self._rows_since_recluster = 0
        self._provisional.clear()
        self._dirty = False
        self._reclusters += 1
        get_metrics().counter(
            SESSION_RECLUSTERS_METRIC, help=_RECLUSTERS_HELP
        ).inc(reason=reason)

    def _refresh_segments(self) -> None:
        """Sync matrix segments' occurrence tuples with the registry.

        Appends merge new occurrences of already-known values into the
        registry only; the frozen ``UniqueSegment`` objects in the
        matrix keep their construction-time tuples.  Refinement's split
        heuristic weighs occurrence counts, so a recluster must see the
        merged state — same byte values, so the matrix is untouched.
        Only the rows whose occurrence lists grew since the last refresh
        are rebuilt; every other row's tuple is already current.
        """
        if self._appendable is None or not self._grown:
            return
        segments = list(self._appendable.segments)
        for row in self._grown:
            data = segments[row].data
            segments[row] = UniqueSegment(
                data=data, occurrences=tuple(self._registry[data])
            )
        self._grown.clear()
        self._appendable.replace_segments(segments)

    def _label_provisional(self) -> None:
        """Label unconfirmed rows against the confirmed clustering."""
        count = len(self._appendable)
        if count == self._confirmed_rows or self._result is None:
            return
        labels = self._result.labels()
        clustered = np.flatnonzero(labels >= 0)
        epsilon = self._result.autoconfig.epsilon
        values = self._appendable.matrix.values
        for row in range(self._confirmed_rows, count):
            if row in self._provisional:
                continue
            label = -1
            if clustered.size:
                distances = np.asarray(values[row, : self._confirmed_rows])[clustered]
                nearest = int(np.argmin(distances))
                if distances[nearest] <= epsilon:
                    label = int(labels[clustered[nearest]])
            self._provisional[row] = label

    # -- snapshots ----------------------------------------------------

    def snapshot(self):
        """A complete :class:`~repro.api.AnalysisRun` over everything
        appended so far — bit-identical (matrix bytes, epsilon, cluster
        membership) to batch :func:`~repro.api.run_analysis` over the
        same messages.

        Reconciles first: when anything was appended since the last
        reclustering, the post-matrix stages re-run (the O(n²) matrix
        is never rebuilt).  The session stays usable afterwards —
        snapshots are cheap checkpoints, not terminal states.
        """
        from repro.api import AnalysisRun
        from repro.msgtypes import cluster_message_types
        from repro.report import AnalysisReport
        from repro.statemachine.stage import infer_session_machine

        self._check_open()
        with self._scopes():
            with get_tracer().span(
                "session.snapshot", messages=self.message_count
            ) as span:
                if self._appendable is None:
                    raise ValueError(
                        "no analyzable segments appended yet"
                        if self._messages
                        else "no messages appended yet"
                    )
                if self._dirty or self._result is None:
                    self._recluster("snapshot")
                result = self._result
                trace = Trace(
                    messages=list(self._messages), protocol=self.protocol
                )
                trace.quarantine = self._merged_quarantine()
                deduced = (
                    deduce_semantics(result, trace) if self.semantics else None
                )
                types = (
                    cluster_message_types(
                        list(self._segments),
                        len(self._messages),
                        matrix=result.matrix,
                        trace=trace,
                    )
                    if self.msgtypes
                    else None
                )
                machine = (
                    infer_session_machine(trace, types, labeled_trace=trace)
                    if self.statemachine and types is not None
                    else None
                )
                report = AnalysisReport.build(
                    result, trace, deduced, msgtypes=types, statemachine=machine
                )
                if self._appendable.options.use_cache:
                    self._appendable.persist()
                span.set(clusters=result.cluster_count)
        return AnalysisRun(
            trace=trace,
            segments=list(self._segments),
            result=result,
            report=report,
            semantics=deduced,
            config=self.config,
            quarantine=trace.quarantine,
            msgtypes=types,
            statemachine=machine,
        )

    def _merged_quarantine(self) -> QuarantineReport | None:
        """One report over every lenient load this session absorbed."""
        return QuarantineReport.merged(self._quarantines, source="session")
