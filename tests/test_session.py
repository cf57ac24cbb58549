"""Incremental session lifecycle: split-invariance, drift gate, resume.

The core contract — the reason :class:`repro.AnalysisSession` may exist
at all — is that chunking must not change the answer: any split of a
message stream into append batches yields a :meth:`snapshot` whose
matrix is byte-identical to a batch :func:`repro.api.run_analysis` over
the same messages, with the same epsilon, clusters, and segments.
Hypothesis drives the splits; further tests pin the drift gate,
provisional labels, checkpoint resume, and the ``run_analysis``
quarantine regression this PR fixes.
"""

import dataclasses
import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_analysis
from repro.core import autoconf as autoconf_mod
from repro.core import matrix as matrix_mod
from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.errors import QuarantineReport
from repro.net.trace import Trace, TraceMessage
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.protocols import get_model
from repro.session import (
    SESSION_APPENDS_METRIC,
    SESSION_RECLUSTERS_METRIC,
    AnalysisSession,
    SessionCheckpoint,
    _legacy_session_fingerprints,
    _message_from_record,
    session_fingerprint,
)
from repro.statemachine.export import to_json

#: A journal (WAL, archive and snapshot from one compaction) written
#: before defaulted config fields left the session fingerprint: DNS
#: model messages, seed 1801, three chunks of 12, ``wal_max_bytes=6000``.
LEGACY_JOURNAL = Path(__file__).parent / "fixtures" / "legacy_journal"


def make_messages(count: int, seed: int = 0) -> list[TraceMessage]:
    rng = random.Random(seed)
    return [
        TraceMessage(
            data=bytes(rng.randrange(256) for _ in range(rng.randrange(4, 24)))
        )
        for _ in range(count)
    ]


def assert_same_run(run_a, run_b):
    """Matrix bytes, epsilon, clusters, and segments all identical."""
    a, b = run_a.result, run_b.result
    assert [s.data for s in a.matrix.segments] == [s.data for s in b.matrix.segments]
    assert (
        np.asarray(a.matrix.values).tobytes() == np.asarray(b.matrix.values).tobytes()
    )
    assert a.epsilon == b.epsilon
    assert [sorted(c.tolist()) for c in a.clusters] == [
        sorted(c.tolist()) for c in b.clusters
    ]
    assert a.noise.tolist() == b.noise.tolist()
    assert [(s.message_index, s.offset, s.data) for s in run_a.segments] == [
        (s.message_index, s.offset, s.data) for s in run_b.segments
    ]
    assert [u.data for u in a.excluded] == [u.data for u in b.excluded]
    assert [len(u.occurrences) for u in a.segments] == [
        len(u.occurrences) for u in b.segments
    ]


class TestSplitInvariance:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 59), min_size=0, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_split_matches_batch(self, seed, cuts):
        messages = make_messages(60, seed=seed)
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        session = AnalysisSession(protocol="p")
        edges = [0, *sorted(set(cuts)), len(messages)]
        for start, stop in zip(edges, edges[1:]):
            if stop > start:
                session.append(messages[start:stop])
        assert_same_run(session.snapshot(), batch)

    def test_duplicates_and_empties_drop_like_preprocess(self):
        messages = make_messages(40, seed=7)
        noisy = [*messages, *messages[:10], TraceMessage(data=b"")]
        batch = run_analysis(Trace(messages=list(noisy), protocol="p"))
        session = AnalysisSession(protocol="p")
        update = session.append(noisy[:30])
        assert update.appended_messages == 30
        update = session.append(noisy[30:])
        assert update.dropped_messages == 11
        assert_same_run(session.snapshot(), batch)
        assert session.message_count == 40

    def test_session_survives_snapshot(self):
        messages = make_messages(50, seed=3)
        session = AnalysisSession(protocol="p")
        session.append(messages[:30])
        first = session.snapshot()
        session.append(messages[30:])
        second = session.snapshot()
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        assert_same_run(second, batch)
        assert len(first.trace) == 30  # earlier snapshot is unaffected


class TestDriftGate:
    def test_first_append_reclusters(self):
        session = AnalysisSession(protocol="p")
        update = session.append(make_messages(30, seed=1))
        assert update.reclustered and update.reason == "initial"

    def test_small_append_stays_provisional(self):
        session = AnalysisSession(protocol="p", epsilon_tolerance=10.0)
        session.append(make_messages(200, seed=2))
        update = session.append(make_messages(3, seed=99))
        assert not update.reclustered and update.reason == "stable"
        assert update.provisional_segments > 0
        labels = session.labels()
        assert len(labels) == session.unique_segment_count

    def test_large_append_trips_fraction_gate(self):
        session = AnalysisSession(protocol="p", epsilon_tolerance=10.0)
        session.append(make_messages(40, seed=4))
        update = session.append(make_messages(40, seed=5))
        assert update.reclustered and update.reason == "appended_fraction"

    def test_epsilon_drift_trips_gate(self):
        # Tolerance 0: any epsilon movement forces a reclustering.
        session = AnalysisSession(
            protocol="p", recluster_fraction=1e9, epsilon_tolerance=0.0
        )
        session.append(make_messages(120, seed=6))
        update = session.append(make_messages(20, seed=7))
        assert update.reclustered == (update.reason == "epsilon_drift")

    def test_rejects_trace_global_segmenters(self):
        with pytest.raises(ValueError, match="incrementally"):
            AnalysisSession(segmenter="netzob")
        with pytest.raises(ValueError, match="incrementally"):
            AnalysisSession(segmenter="csp")

    def test_observability(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        session = AnalysisSession(protocol="p", tracer=tracer, metrics=metrics)
        session.append(make_messages(30, seed=8))
        session.snapshot()
        assert tracer.find("session.append")
        assert tracer.find("session.snapshot")
        assert tracer.find("session.recluster")
        assert metrics.counter(SESSION_APPENDS_METRIC).value() == 1
        assert metrics.counter(SESSION_RECLUSTERS_METRIC).value(reason="initial") == 1


class TestLifecycle:
    def test_closed_session_refuses(self):
        session = AnalysisSession(protocol="p")
        session.close()
        with pytest.raises(ValueError, match="closed"):
            session.append([b"\x01\x02"])
        with pytest.raises(ValueError, match="closed"):
            session.snapshot()

    def test_empty_snapshot_raises(self):
        with AnalysisSession(protocol="p") as session:
            with pytest.raises(ValueError, match="no messages"):
                session.snapshot()

    def test_append_accepts_raw_bytes(self):
        session = AnalysisSession(protocol="p")
        update = session.append([b"\x01\x02\x03\x04", b"\x05\x06\x07\x08"])
        assert update.appended_messages == 2
        with pytest.raises(TypeError):
            session.append([42])


class TestCheckpointResume:
    def test_resume_replays_to_identical_state(self, tmp_path):
        path = tmp_path / "session.jsonl"
        messages = make_messages(60, seed=9)
        first = AnalysisSession(protocol="p", checkpoint_path=path)
        first.append(messages[:25])
        first.append(messages[25:45])
        # "crash": abandon the session object, resume from the journal.
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.message_count == first.message_count
        assert (
            np.asarray(resumed._appendable.matrix.values).tobytes()
            == np.asarray(first._appendable.matrix.values).tobytes()
        )
        resumed.append(messages[45:])
        batch = run_analysis(Trace(messages=list(messages), protocol="p"))
        assert_same_run(resumed.snapshot(), batch)

    def test_foreign_fingerprint_is_not_replayed(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(protocol="p", checkpoint_path=path)
        session.append(make_messages(10, seed=10))
        other_config = AnalysisSession(
            ClusteringConfig(penalty_factor=0.123),
            protocol="p",
            checkpoint_path=path,
        )
        assert other_config.message_count == 0
        other_protocol = AnalysisSession(protocol="q", checkpoint_path=path)
        assert other_protocol.message_count == 0

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(protocol="p", checkpoint_path=path)
        session.append(make_messages(10, seed=11))
        with open(path, "a") as handle:
            handle.write('{"schema": "repro.session-checkpoint/v1", "fing')
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.message_count == session.message_count

    def test_resume_disabled(self, tmp_path):
        path = tmp_path / "session.jsonl"
        AnalysisSession(protocol="p", checkpoint_path=path).append(
            make_messages(5, seed=12)
        )
        fresh = AnalysisSession(protocol="p", checkpoint_path=path, resume=False)
        assert fresh.message_count == 0

    def test_fingerprint_is_config_sensitive(self):
        base = session_fingerprint(ClusteringConfig(), "nemesys", "p")
        assert base == session_fingerprint(ClusteringConfig(), "nemesys", "p")
        assert base != session_fingerprint(
            ClusteringConfig(penalty_factor=0.5), "nemesys", "p"
        )
        assert base != session_fingerprint(ClusteringConfig(), "nemesys", "q")

    def test_defaulted_field_stays_out_of_the_fingerprint(self):
        @dataclass(frozen=True)
        class Extended(ClusteringConfig):
            extra_knob: int = 7

        base = session_fingerprint(ClusteringConfig(), "nemesys", "p")
        assert session_fingerprint(Extended(), "nemesys", "p") == base
        assert session_fingerprint(Extended(extra_knob=8), "nemesys", "p") != base

    def test_checkpoint_roundtrips_message_context(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "f")
        message = TraceMessage(
            data=b"\x01\x02",
            timestamp=3.5,
            src_ip=b"\x0a\x00\x00\x01",
            dst_ip=b"\x0a\x00\x00\x02",
            src_port=1234,
            dst_port=53,
            direction="request",
        )
        checkpoint.record_chunk(0, [message])
        [[loaded]] = checkpoint.load_chunks()
        assert loaded == message


class TestLegacyJournal:
    """Journals written before defaulted fields left the fingerprint
    replay, through the snapshot and through the full journal."""

    @staticmethod
    def _copy(tmp_path) -> Path:
        for source in LEGACY_JOURNAL.iterdir():
            shutil.copy(source, tmp_path / source.name)
        return tmp_path / "journal.jsonl"

    @staticmethod
    def _fresh_digest() -> dict:
        session = AnalysisSession(protocol="dns")
        for name in ("journal.jsonl.archive", "journal.jsonl"):
            for line in (LEGACY_JOURNAL / name).read_text().splitlines():
                records = json.loads(line)["messages"]
                session.append([_message_from_record(r) for r in records])
        return session.digest()

    def test_replays_through_the_snapshot(self, tmp_path):
        path = self._copy(tmp_path)
        resumed = AnalysisSession(protocol="dns", checkpoint_path=path)
        assert resumed.replayed["snapshot"] == "ok"
        assert resumed.replayed["wal_chunks"] == 1
        digest = resumed.digest()
        assert digest == self._fresh_digest()
        assert digest["messages"] == 36
        # New lines carry only the current fingerprint.
        resumed.append(make_messages(3, seed=18))
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["fingerprint"] == session_fingerprint(
            ClusteringConfig(), "nemesys", "dns"
        )

    def test_replays_without_the_snapshot(self, tmp_path):
        path = self._copy(tmp_path)
        (tmp_path / "journal.jsonl.snapshot").unlink()
        resumed = AnalysisSession(protocol="dns", checkpoint_path=path)
        assert resumed.replayed["snapshot"] == "missing"
        assert resumed.replayed["archive_chunks"] == 2
        assert resumed.replayed["wal_chunks"] == 1
        assert resumed.digest() == self._fresh_digest()


class TestFingerprintResume:
    """A journal resumes under any worker count and storage, which change
    no output; another dtype or clustering field still replays nothing."""

    #: The fingerprint journals written before the matrix cache was
    #: deleted carry for ``MatrixBuildOptions(workers=2, use_cache=True)``
    #: with the nemesys segmenter and protocol "p".
    CACHED_WORKERS_2 = "558678db474fe36555dc727694708c6502656da9be21eed3d834091a785fa948"

    @staticmethod
    def config(**options) -> ClusteringConfig:
        return ClusteringConfig(matrix_options=MatrixBuildOptions(**options))

    def test_resumes_under_another_worker_count_and_storage(self, tmp_path):
        path = tmp_path / "session.jsonl"
        messages = make_messages(60, seed=21)
        writer = AnalysisSession(self.config(workers=2), protocol="p", checkpoint_path=path)
        for start in range(0, len(messages), 20):
            writer.append(messages[start : start + 20])
        digest = writer.digest()
        for options in ({"workers": 1}, {"storage": "memmap"}, {}):
            resumed = AnalysisSession(
                self.config(**options), protocol="p", checkpoint_path=path
            )
            assert resumed.replayed["wal_chunks"] == 3
            assert resumed.digest() == digest

    def test_replays_lines_stamped_while_the_cache_existed(self, tmp_path):
        config = self.config(workers=2)
        assert self.CACHED_WORKERS_2 in _legacy_session_fingerprints(config, "nemesys", "p")
        path = tmp_path / "session.jsonl"
        SessionCheckpoint(path, self.CACHED_WORKERS_2).record_chunk(
            0, make_messages(30, seed=22)
        )
        resumed = AnalysisSession(config, protocol="p", checkpoint_path=path)
        assert resumed.replayed["wal_chunks"] == 1
        assert resumed.message_count == 30

    def test_another_dtype_replays_nothing(self, tmp_path):
        path = tmp_path / "session.jsonl"
        AnalysisSession(self.config(workers=2), protocol="p", checkpoint_path=path).append(
            make_messages(20, seed=23)
        )
        resumed = AnalysisSession(
            self.config(workers=2, dtype="float32"), protocol="p", checkpoint_path=path
        )
        assert resumed.replayed["wal_chunks"] == 0
        assert resumed.message_count == 0


def retransmitted(protocol: str, count: int = 120, every: int = 7) -> list[TraceMessage]:
    """*count* model messages, every *every*-th repeated 0.5 ms later."""
    messages = []
    for index, message in enumerate(get_model(protocol).generate(count, seed=924)):
        messages.append(message)
        if index % every == every - 1:
            messages.append(dataclasses.replace(message, timestamp=message.timestamp + 5e-4))
    return messages


class TestSnapshotStateMachine:
    """Session tracking in a snapshot reads every appended message, as
    ``run_analysis`` reads the raw trace, retransmissions included."""

    @pytest.mark.parametrize("protocol", ["dns", "dhcp", "smb"])
    def test_automaton_equals_the_batch_run(self, protocol, tmp_path):
        messages = retransmitted(protocol)
        batch = run_analysis(Trace(messages=list(messages), protocol=protocol), statemachine=True)
        expected = to_json(batch.statemachine.machine)
        chunks = [messages[start : start + 20] for start in range(0, len(messages), 20)]
        # Compact about every third chunk, so a resume reads the snapshot
        # and then a WAL tail.
        probe = SessionCheckpoint(tmp_path / "probe.jsonl", "f")
        probe.record_chunk(0, chunks[0])
        options = dict(
            protocol=protocol,
            statemachine=True,
            checkpoint_path=tmp_path / "session.jsonl",
            wal_max_bytes=int(2.5 * probe.wal_bytes()),
        )
        session = AnalysisSession(**options)
        for chunk in chunks:
            session.append(chunk)
        assert to_json(session.snapshot().statemachine.machine) == expected
        assert session.compactions >= 1
        resumed = AnalysisSession(**options)
        assert resumed.replayed["snapshot"] == "ok"
        assert resumed.replayed["wal_chunks"] >= 1
        assert to_json(resumed.snapshot().statemachine.machine) == expected


class TestWalRotation:
    def _grow(self, path, chunks=4, per_chunk=15, wal_max_bytes=600):
        session = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=wal_max_bytes
        )
        for index in range(chunks):
            session.append(make_messages(per_chunk, seed=100 + index))
        return session

    def test_rotation_compacts_and_resumes_from_snapshot(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = self._grow(path)
        assert session.compactions >= 1
        assert SessionCheckpoint(path, "f").snapshot_path.exists()
        digest = session.digest()
        resumed = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=600
        )
        assert resumed.replayed["snapshot"] == "ok"
        assert resumed.replayed["snapshot_messages"] == session.message_count
        # Fast path: only the live-WAL tail is replayed, not the journal.
        assert resumed.replayed["archive_chunks"] == 0
        assert resumed.replayed["wal_chunks"] < 4
        assert resumed.digest() == digest

    def test_corrupt_snapshot_falls_back_to_full_journal(self, tmp_path):
        path = tmp_path / "session.jsonl"
        digest = self._grow(path).digest()
        snapshot_path = SessionCheckpoint(path, "f").snapshot_path
        snapshot_path.write_bytes(snapshot_path.read_bytes()[:-40] + b"x" * 40)
        resumed = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=600
        )
        assert resumed.replayed["snapshot"] == "corrupt"
        assert resumed.replayed["archive_chunks"] >= 1
        assert resumed.digest() == digest

    def test_snapshot_checksum_detects_tamper(self, tmp_path):
        import json as json_module

        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        checkpoint.write_snapshot(make_messages(3, seed=1), {"k": "v"})
        assert checkpoint.load_snapshot()[0] == "ok"
        document = json_module.loads(checkpoint.snapshot_path.read_text())
        document["payload"]["meta"]["k"] = "tampered"
        checkpoint.snapshot_path.write_text(json_module.dumps(document))
        status, messages = checkpoint.load_snapshot()
        assert status == "corrupt" and messages is None

    def test_snapshot_fingerprint_mismatch(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp-a")
        checkpoint.write_snapshot(make_messages(3, seed=2))
        other = SessionCheckpoint(tmp_path / "c.jsonl", "fp-b")
        status, messages = other.load_snapshot()
        assert status == "mismatch" and messages is None

    def test_missing_snapshot(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        assert checkpoint.load_snapshot() == ("missing", None)

    def test_binary_garbage_snapshot_is_corrupt(self, tmp_path):
        checkpoint = SessionCheckpoint(tmp_path / "c.jsonl", "fp")
        checkpoint.snapshot_path.write_bytes(b"\xff\xfe" * 64)
        assert checkpoint.load_snapshot() == ("corrupt", None)

    def test_failed_rotation_keeps_wal_and_session_alive(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "session.jsonl"
        session = AnalysisSession(
            protocol="p", checkpoint_path=path, wal_max_bytes=200
        )
        monkeypatch.setattr(
            SessionCheckpoint,
            "write_snapshot",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        session.append(make_messages(20, seed=3))
        assert session.compactions == 0
        assert session.wal_bytes() > 200  # WAL untouched, nothing lost
        monkeypatch.undo()
        digest = session.digest()
        resumed = AnalysisSession(protocol="p", checkpoint_path=path)
        assert resumed.digest() == digest

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="wal_max_bytes"):
            SessionCheckpoint(tmp_path / "c.jsonl", "fp", wal_max_bytes=0)

    def test_digest_is_chunking_invariant(self):
        messages = make_messages(40, seed=4)
        one = AnalysisSession(protocol="p")
        one.append(messages)
        split = AnalysisSession(protocol="p")
        split.append(messages[:13])
        split.append(messages[13:])
        assert one.digest() == split.digest()


def dns_stream(seed: int) -> list[TraceMessage]:
    return get_model("dns").generate(600, seed=seed).messages


def stream_outputs(messages: list[TraceMessage]) -> tuple[list[dict], int]:
    """Every SessionUpdate of 10-message appends and a digest after every
    10th append (the ``repro serve`` benchmark stream's shape), and how
    many window tables the matrix kept at the end."""
    session = AnalysisSession(protocol="dns")
    outputs = []
    for number, start in enumerate(range(0, len(messages), 10), 1):
        outputs.append(asdict(session.append(messages[start : start + 10])))
        if number % 10 == 0:
            outputs.append(session.digest())
    return outputs, len(session._appendable._tables)


class TestIncrementalState:
    """What an append keeps (window tables, occurrence tuples, the drift
    gate's auto-configuration) changes no output."""

    @pytest.mark.parametrize("seed", [924, 101])
    def test_dns_streams_match_rebuilt_tables_and_batch(self, monkeypatch, seed):
        messages = dns_stream(seed)
        kept, tables = stream_outputs(messages)
        assert tables > 0
        monkeypatch.setattr(matrix_mod, "KEPT_TABLE_SHARE", 0.0)
        assert stream_outputs(messages) == (kept, 0)
        digests = [output for output in kept if "matrix_sha256" in output]
        assert len(digests) == 6
        for digest in digests:
            batch = run_analysis(
                Trace(messages=messages[: digest["messages"]], protocol="dns")
            ).result
            values = np.ascontiguousarray(batch.matrix.values)
            assert digest["matrix_sha256"] == hashlib.sha256(values.tobytes()).hexdigest()
            assert digest["epsilon"] == batch.epsilon
            assert digest["cluster_count"] == batch.cluster_count
            clusters = sorted(sorted(int(i) for i in c) for c in batch.clusters)
            assert digest["clusters_sha256"] == hashlib.sha256(
                json.dumps(clusters, separators=(",", ":")).encode()
            ).hexdigest()

    def test_refreshed_occurrences_equal_a_full_rebuild(self, monkeypatch):
        session = AnalysisSession(protocol="dns", recluster_fraction=0.1)
        real = AnalysisSession._refresh_segments
        rebuilt = []

        def checked(self):
            before = list(self._appendable.segments) if self._appendable else []
            real(self)
            segments = self._appendable.segments
            for segment in segments:
                assert segment.occurrences == tuple(self._registry[segment.data])
            rebuilt.append(sum(a is not b for a, b in zip(before, segments)))

        monkeypatch.setattr(AnalysisSession, "_refresh_segments", checked)
        messages = dns_stream(924)[:300]
        for start in range(0, len(messages), 10):
            session.append(messages[start : start + 10])
        session.digest()
        assert session.reclusters == len(rebuilt) > 3
        # Only grown rows were rebuilt: some, never all.
        assert 0 < max(rebuilt) < session.unique_segment_count

    def test_recluster_after_epsilon_drift_reuses_the_gates_autoconfig(
        self, monkeypatch
    ):
        session = AnalysisSession(
            protocol="p", recluster_fraction=1e9, epsilon_tolerance=0.0
        )
        session.append(make_messages(120, seed=6))
        smooths = []
        real_smooth = autoconf_mod.smooth_ecdf

        def counted_smooth(*args, **kwargs):
            smooths.append(1)
            return real_smooth(*args, **kwargs)

        gate = []
        real_configure = autoconf_mod.configure

        def gate_configure(*args, **kwargs):
            gate.append(real_configure(*args, **kwargs))
            return gate[-1]

        reclusters = []
        real_recluster = AnalysisSession._recluster

        def counted_recluster(self, reason):
            before = len(smooths)
            real_recluster(self, reason)
            reclusters.append((reason, len(smooths) - before))

        monkeypatch.setattr(autoconf_mod, "smooth_ecdf", counted_smooth)
        monkeypatch.setattr("repro.session.configure", gate_configure)
        monkeypatch.setattr(AnalysisSession, "_recluster", counted_recluster)
        tracer = Tracer()
        session._tracer = tracer
        update = session.append(make_messages(20, seed=7))
        assert update.reason == "epsilon_drift"
        assert session.result.retrims == 0
        assert reclusters == [("epsilon_drift", 0)]
        assert session.result.autoconfig == gate[-1]
        (span,) = tracer.find("autoconf")
        assert span.attributes["reused"] is True

    def test_digest_hashes_the_contiguous_matrix(self):
        session = AnalysisSession(protocol="p")
        session.append(make_messages(40, seed=21))
        session.append(make_messages(15, seed=22))
        digest = session.digest()
        values = session.result.matrix.values
        assert not values.flags.c_contiguous  # a view of the larger backing
        old = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
        assert digest["matrix_sha256"] == old


class TestQuarantineRegression:
    def _lenient_trace(self):
        trace = Trace(messages=make_messages(20, seed=13), protocol="p")
        trace.quarantine = QuarantineReport(source="x.pcap", ok_count=20)
        trace.quarantine.records.append(object())
        return trace

    def test_run_analysis_keeps_quarantine_after_preprocess(self):
        trace = self._lenient_trace()
        run = run_analysis(trace)
        assert run.quarantine is trace.quarantine
        # The regression: preprocess() returns a fresh Trace that used
        # to lose the report, leaving run.trace.quarantine None.
        assert run.trace.quarantine is trace.quarantine

    def test_session_merges_quarantines_into_snapshot(self):
        session = AnalysisSession(protocol="p")
        trace_a = Trace(messages=make_messages(15, seed=14), protocol="p")
        trace_a.quarantine = QuarantineReport(source="a.pcap", ok_count=15)
        trace_a.quarantine.records.append("r1")
        trace_b = Trace(messages=make_messages(15, seed=15), protocol="p")
        trace_b.quarantine = QuarantineReport(
            source="b.pcap", ok_count=15, truncated_tail=True
        )
        session.append(trace_a)
        session.append(trace_b)
        run = session.snapshot()
        assert run.quarantine is not None
        assert run.quarantine.ok_count == 30
        assert run.quarantine.truncated_tail
        assert run.quarantine.quarantined_count == 1
        assert run.trace.quarantine is run.quarantine
