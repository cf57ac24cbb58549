"""Shared error taxonomy and the ingest quarantine report.

Every failure the pipeline can *survive* is classified under one
:class:`ReproError` root so callers can write one ``except`` clause per
degradation domain:

- :class:`IngestError` — malformed capture input (pcap/pcapng framing,
  truncated records, unparseable frames).  It subclasses
  :class:`ValueError` because the historical reader exception,
  :class:`repro.net.pcap.PcapError`, did; existing ``except PcapError``
  / ``except ValueError`` call sites keep working unchanged.
- :class:`ComputeError` — a matrix tile that failed, inline or on a
  worker thread; the message names the bin.  There is no retry: the
  build fails loudly.
- :class:`CacheError` — an on-disk cache entry that failed validation
  (bad checksum, wrong payload schema).  Cache consumers treat it as a
  miss; it never propagates out of :mod:`repro.core.matrixcache`.

Lenient ingest (``strict=False`` on :func:`repro.net.pcap.read_pcap`,
:func:`repro.net.pcapng.read_pcapng`, and
:func:`repro.net.trace.load_trace`) does not raise on malformed
*records*: it salvages everything before the first corruption and files
the rest into a :class:`QuarantineReport`.  Header-level corruption
(bad magic, unsupported version) still raises even in lenient mode —
there is nothing to salvage from a file we cannot frame at all.

Counters (Prometheus names; the design notes' dotted spellings map as
``ingest.records.ok`` → ``repro_ingest_records_total{status="ok"}``):

- ``repro_ingest_records_total{status=ok|quarantined|salvaged_tail}``
- ``repro_ingest_frames_unparsed_total`` — Ethernet frames kept with
  their raw payload after :func:`parse_ethernet_frame` failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.metrics import get_metrics


class ReproError(Exception):
    """Root of the repro error taxonomy."""


class IngestError(ReproError, ValueError):
    """Malformed capture input (file framing, records, frames)."""


class ComputeError(ReproError, RuntimeError):
    """A computation failed; a matrix build raises it naming the failed bin."""


class CacheError(ReproError):
    """An on-disk cache entry failed validation and was discarded."""


INGEST_RECORDS_METRIC = "repro_ingest_records_total"
INGEST_UNPARSED_METRIC = "repro_ingest_frames_unparsed_total"

_RECORDS_HELP = "Capture records read, by outcome (ok/quarantined/salvaged_tail)."
_UNPARSED_HELP = "Frames kept with raw payload after link-layer parsing failed."


def count_records(status: str, amount: int = 1) -> None:
    """Increment ``repro_ingest_records_total{status=...}``."""
    if amount:
        get_metrics().counter(INGEST_RECORDS_METRIC, help=_RECORDS_HELP).inc(
            amount, status=status
        )


def count_unparsed_frame(amount: int = 1) -> None:
    """Increment ``repro_ingest_frames_unparsed_total``."""
    get_metrics().counter(INGEST_UNPARSED_METRIC, help=_UNPARSED_HELP).inc(amount)


def ingest_counters() -> dict[str, int]:
    """Dict snapshot of the ingest counters in the active registry."""
    registry = get_metrics()
    records = registry.counter(INGEST_RECORDS_METRIC, help=_RECORDS_HELP)
    unparsed = registry.counter(INGEST_UNPARSED_METRIC, help=_UNPARSED_HELP)
    return {
        "ok": int(records.value(status="ok")),
        "quarantined": int(records.value(status="quarantined")),
        "salvaged_tail": int(records.value(status="salvaged_tail")),
        "unparsed_frames": int(unparsed.value()),
    }


@dataclass
class QuarantinedRecord:
    """One malformed capture record set aside by the lenient reader.

    *index* is the record's ordinal in the capture (0-based, counting
    every record the reader saw), *offset* the byte position of the
    record header in the file, *reason* a stable machine-readable slug,
    *detail* the human explanation, and *data* whatever raw bytes could
    still be recovered (possibly empty).
    """

    index: int
    offset: int
    reason: str
    detail: str
    data: bytes = b""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "offset": self.offset,
            "reason": self.reason,
            "detail": self.detail,
            "data_len": len(self.data),
        }


@dataclass
class QuarantineReport:
    """Structured outcome of one lenient ingest.

    ``ok_count`` records parsed cleanly; ``records`` were quarantined;
    ``truncated_tail`` is set when the reader hit corruption it could
    not skip past and salvaged only the prefix; ``unparsed_frames``
    counts frames kept with their raw payload after link-layer parsing
    failed (those are *not* quarantined — the payload survives).
    """

    source: str = ""
    ok_count: int = 0
    unparsed_frames: int = 0
    truncated_tail: bool = False
    records: list[QuarantinedRecord] = field(default_factory=list)

    def __bool__(self) -> bool:
        """True when anything was quarantined or the tail was lost."""
        return bool(self.records) or self.truncated_tail

    @classmethod
    def merged(
        cls,
        reports: "Iterable[QuarantineReport | None]",
        source: str = "merged",
    ) -> "QuarantineReport | None":
        """One report summing *reports* (Nones skipped); None when empty.

        A single surviving report is returned as-is so provenance
        (its ``source``) is preserved; merging only happens when there
        is genuinely more than one lenient load to combine.
        """
        kept = [report for report in reports if report is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        merged = cls(source=source)
        for report in kept:
            merged.ok_count += report.ok_count
            merged.unparsed_frames += report.unparsed_frames
            merged.truncated_tail = merged.truncated_tail or report.truncated_tail
            merged.records.extend(report.records)
        return merged

    @property
    def quarantined_count(self) -> int:
        return len(self.records)

    def record_ok(self, amount: int = 1) -> None:
        self.ok_count += amount
        count_records("ok", amount)

    def quarantine(
        self, index: int, offset: int, reason: str, detail: str, data: bytes = b""
    ) -> QuarantinedRecord:
        """File one malformed record; returns the quarantine entry."""
        entry = QuarantinedRecord(
            index=index, offset=offset, reason=reason, detail=detail, data=data
        )
        self.records.append(entry)
        count_records("quarantined")
        return entry

    def quarantine_tail(
        self, index: int, offset: int, reason: str, detail: str, data: bytes = b""
    ) -> QuarantinedRecord:
        """File trailing corruption: the prefix was salvaged, the rest lost."""
        entry = self.quarantine(index, offset, reason, detail, data)
        self.truncated_tail = True
        count_records("salvaged_tail")
        return entry

    def frame_unparsed(self, amount: int = 1) -> None:
        self.unparsed_frames += amount
        count_unparsed_frame(amount)

    def summary(self) -> str:
        """One-line human summary for CLI stderr output."""
        parts = [f"{self.ok_count} ok", f"{self.quarantined_count} quarantined"]
        if self.truncated_tail:
            parts.append("tail truncated")
        if self.unparsed_frames:
            parts.append(f"{self.unparsed_frames} frames unparsed")
        prefix = f"{self.source}: " if self.source else ""
        return prefix + ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready image (run manifests, report attachments)."""
        return {
            "source": self.source,
            "ok_count": self.ok_count,
            "quarantined_count": self.quarantined_count,
            "unparsed_frames": self.unparsed_frames,
            "truncated_tail": self.truncated_tail,
            "records": [entry.to_dict() for entry in self.records],
        }
