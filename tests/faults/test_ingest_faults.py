"""Fault injection, ingest: corrupted captures degrade, never lie.

Acceptance path: a pcap with a corrupted tail loads leniently with the
salvaged prefix and a non-empty quarantine report, while strict mode
still raises :class:`~repro.errors.IngestError`.
"""

import pytest

from repro.errors import IngestError, ingest_counters
from repro.net.packet import build_udp_ipv4_frame
from repro.net.pcap import PcapPacket, write_pcap
from repro.net.pcapng import write_pcapng
from repro.net.trace import load_trace
from repro.obs.metrics import MetricsRegistry, use_metrics

pytestmark = pytest.mark.faults


def _frames(count: int) -> list[PcapPacket]:
    return [
        PcapPacket(
            timestamp=float(i),
            data=build_udp_ipv4_frame(
                bytes([i]) * 8,
                src_ip=b"\x0a\x00\x00\x01",
                dst_ip=b"\x0a\x00\x00\x02",
                src_port=40000 + i,
                dst_port=123,
            ),
        )
        for i in range(count)
    ]


@pytest.fixture
def corrupted_pcap(tmp_path):
    """Five good packets, then the last record's data cut short."""
    path = tmp_path / "corrupt.pcap"
    write_pcap(path, _frames(5))
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    return path


class TestCorruptedTailPcap:
    def test_strict_raises_ingest_error(self, corrupted_pcap):
        with pytest.raises(IngestError):
            load_trace(corrupted_pcap)

    def test_strict_is_the_default(self, corrupted_pcap):
        # Also catchable as ValueError, the historical contract.
        with pytest.raises(ValueError):
            load_trace(str(corrupted_pcap))

    def test_lenient_salvages_prefix(self, corrupted_pcap):
        trace = load_trace(corrupted_pcap, strict=False)
        assert len(trace) == 4
        assert [m.data for m in trace] == [bytes([i]) * 8 for i in range(4)]

    def test_lenient_report_is_non_empty(self, corrupted_pcap):
        trace = load_trace(corrupted_pcap, strict=False)
        report = trace.quarantine
        assert report is not None and bool(report)
        assert report.ok_count == 4
        assert report.truncated_tail
        assert report.quarantined_count == 1
        assert report.records[0].reason == "truncated-packet-data"
        assert "tail truncated" in report.summary()

    def test_lenient_emits_ingest_counters(self, corrupted_pcap):
        registry = MetricsRegistry()
        with use_metrics(registry):
            load_trace(corrupted_pcap, strict=False)
            counters = ingest_counters()
        assert counters["ok"] == 4
        assert counters["salvaged_tail"] == 1

    def test_report_serializes(self, corrupted_pcap):
        import json

        trace = load_trace(corrupted_pcap, strict=False)
        image = trace.quarantine.to_dict()
        assert json.loads(json.dumps(image)) == image
        assert image["records"][0]["reason"] == "truncated-packet-data"


class TestCorruptedTailPcapng:
    @pytest.fixture
    def corrupted_pcapng(self, tmp_path):
        path = tmp_path / "corrupt.pcapng"
        write_pcapng(path, _frames(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-6])
        return path

    def test_strict_raises(self, corrupted_pcapng):
        with pytest.raises(IngestError):
            load_trace(corrupted_pcapng)

    def test_lenient_salvages_prefix(self, corrupted_pcapng):
        trace = load_trace(corrupted_pcapng, strict=False)
        assert len(trace) == 2
        assert trace.quarantine.truncated_tail


class TestHeaderCorruption:
    def test_lenient_cannot_salvage_garbage(self, tmp_path):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"\x99" * 64)
        with pytest.raises(IngestError):
            load_trace(path, strict=False)


class TestCleanCaptureUnaffected:
    def test_lenient_equals_strict_on_clean_file(self, tmp_path):
        path = tmp_path / "clean.pcap"
        write_pcap(path, _frames(4))
        strict = load_trace(path)
        lenient = load_trace(path, strict=False)
        assert [m.data for m in strict] == [m.data for m in lenient]
        assert strict.quarantine is None  # no report in strict mode
        assert lenient.quarantine is not None and not lenient.quarantine



class TestIngestRecordCounts:
    """``repro_ingest_records_total`` counts a capture's ok records in one
    increment, also when a strict load raises mid-file or a lenient one
    quarantines its tail."""

    @pytest.fixture(params=["pcap", "pcapng"])
    def captures(self, request, tmp_path):
        """A clean capture of five frames and one whose last is cut short."""
        write = write_pcap if request.param == "pcap" else write_pcapng
        clean = tmp_path / f"clean.{request.param}"
        write(clean, _frames(5))
        cut = tmp_path / f"cut.{request.param}"
        cut.write_bytes(clean.read_bytes()[:-6])
        return clean, cut

    @staticmethod
    def load(path, monkeypatch, strict):
        """The ingest counters after loading *path*, the amounts of each
        ``ok`` increment, and the load's error, if any."""
        import repro.errors

        increments = []
        count_records = repro.errors.count_records

        def counting(status, amount=1):
            if status == "ok":
                increments.append(amount)
            count_records(status, amount)

        monkeypatch.setattr(repro.errors, "count_records", counting)
        error = None
        with use_metrics(MetricsRegistry()):
            try:
                load_trace(path, strict=strict)
            except IngestError as raised:
                error = raised
            counters = ingest_counters()
        return counters, increments, error

    def test_clean_capture(self, captures, monkeypatch):
        for strict in (True, False):
            counters, increments, error = self.load(captures[0], monkeypatch, strict)
            assert error is None
            assert counters == {
                "ok": 5, "quarantined": 0, "salvaged_tail": 0, "unparsed_frames": 0
            }
            assert increments == [5]

    def test_strict_load_that_raises(self, captures, monkeypatch):
        counters, increments, error = self.load(captures[1], monkeypatch, True)
        assert error is not None
        assert counters == {
            "ok": 4, "quarantined": 0, "salvaged_tail": 0, "unparsed_frames": 0
        }
        assert increments == [4]

    def test_lenient_load_that_salvages(self, captures, monkeypatch):
        counters, increments, error = self.load(captures[1], monkeypatch, False)
        assert error is None
        assert counters == {
            "ok": 4, "quarantined": 1, "salvaged_tail": 1, "unparsed_frames": 0
        }
        assert increments == [4]
