"""Classic libpcap capture file format (``.pcap``) reader and writer.

Implements the de-facto format described in the pcap(3) manual and the
IETF opsawg draft: a 24-byte global header followed by per-packet record
headers.  Both endiannesses and both timestamp resolutions (micro / nano)
are supported for reading; writing emits little-endian microsecond files,
which is what tcpdump produces on x86.

Both readers (:func:`read_pcap` and the streaming :func:`iter_pcap`)
share one record-iterator core, :func:`iter_pcap_records`, so they
accept exactly the same files.  Each reader takes a ``strict`` flag:

- ``strict=True`` (default) raises :class:`PcapError` on the first
  malformed record, byte-for-byte the historical behavior;
- ``strict=False`` salvages every record before the first corruption
  and files malformed ones into a
  :class:`~repro.errors.QuarantineReport` instead of raising.  Global
  header corruption (bad magic, unsupported version) still raises —
  without a valid header there is nothing to salvage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.errors import IngestError, QuarantineReport

MAGIC_MICRO_LE = 0xA1B2C3D4
MAGIC_NANO_LE = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_IEEE802_11 = 105
LINKTYPE_USER0 = 147  # we use USER0 for AU and USER1 for AWDL payload captures
LINKTYPE_USER1 = 148


class PcapError(IngestError):
    """Raised for malformed capture files."""


@dataclass(frozen=True)
class PcapPacket:
    """One captured packet: epoch timestamp (float seconds) + raw bytes."""

    timestamp: float
    data: bytes
    orig_len: int | None = None

    @property
    def captured_len(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class PcapHeader:
    """Decoded global header: byte order, resolution, limits, linktype."""

    endian: str
    resolution: float
    snaplen: int
    linktype: int
    version: tuple[int, int] = (2, 4)


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise PcapError(f"truncated pcap: expected {size} bytes for {what}, got {len(data)}")
    return data


def read_pcap_header(stream: BinaryIO) -> PcapHeader:
    """Read and validate the 24-byte global header.

    Raises :class:`PcapError` on bad magic or an unsupported version —
    in lenient mode too, since a broken global header leaves no framing
    to salvage records with.
    """
    header = _read_exact(stream, 24, "global header")
    (magic,) = struct.unpack("<I", header[:4])
    if magic == MAGIC_MICRO_LE:
        endian, resolution = "<", 1e-6
    elif magic == MAGIC_NANO_LE:
        endian, resolution = "<", 1e-9
    else:
        (magic_be,) = struct.unpack(">I", header[:4])
        if magic_be == MAGIC_MICRO_LE:
            endian, resolution = ">", 1e-6
        elif magic_be == MAGIC_NANO_LE:
            endian, resolution = ">", 1e-9
        else:
            raise PcapError(f"bad magic number: 0x{magic:08x}")
    version_major, version_minor, _tz, _sigfigs, snaplen, linktype = struct.unpack(
        endian + "HHiIII", header[4:]
    )
    if version_major != 2:
        raise PcapError(f"unsupported pcap version {version_major}.{version_minor}")
    return PcapHeader(
        endian=endian,
        resolution=resolution,
        snaplen=snaplen,
        linktype=linktype,
        version=(version_major, version_minor),
    )


def iter_pcap_records(
    stream: BinaryIO,
    header: PcapHeader,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> Iterator[PcapPacket]:
    """Yield packets after the global header — the shared reader core.

    In lenient mode malformed records go into *report* (one is created
    internally when None, so metrics are still emitted): an over-snaplen
    record is skipped in place when its declared bytes are present, and
    corruption that destroys the framing (partial record header,
    truncated packet data) quarantines the tail and stops.
    """
    if report is None:
        report = QuarantineReport()
    offset = 24
    index = 0
    # Ok records are counted here and recorded once, when the capture
    # ends, raises or is abandoned: not a metric lookup per record.
    ok = 0
    try:
        while True:
            record = stream.read(16)
            if not record:
                return
            if len(record) != 16:
                if strict:
                    raise PcapError("truncated pcap: partial record header")
                report.quarantine_tail(
                    index,
                    offset,
                    "partial-record-header",
                    f"expected 16 bytes for record header, got {len(record)}",
                    data=record,
                )
                return
            ts_sec, ts_frac, incl_len, orig_len = struct.unpack(header.endian + "IIII", record)
            if incl_len > header.snaplen and header.snaplen:
                if strict:
                    raise PcapError(
                        f"record length {incl_len} exceeds snaplen {header.snaplen}"
                    )
                data = stream.read(incl_len)
                if len(data) != incl_len:
                    report.quarantine_tail(
                        index,
                        offset,
                        "over-snaplen-truncated",
                        f"record length {incl_len} exceeds snaplen {header.snaplen} "
                        f"and only {len(data)} bytes follow",
                        data=data,
                    )
                    return
                report.quarantine(
                    index,
                    offset,
                    "over-snaplen",
                    f"record length {incl_len} exceeds snaplen {header.snaplen}",
                    data=data,
                )
                offset += 16 + incl_len
                index += 1
                continue
            data = stream.read(incl_len)
            if len(data) != incl_len:
                if strict:
                    raise PcapError(
                        f"truncated pcap: expected {incl_len} bytes for packet data, "
                        f"got {len(data)}"
                    )
                report.quarantine_tail(
                    index,
                    offset,
                    "truncated-packet-data",
                    f"expected {incl_len} bytes of packet data, got {len(data)}",
                    data=data,
                )
                return
            ok += 1
            yield PcapPacket(
                timestamp=ts_sec + ts_frac * header.resolution, data=data, orig_len=orig_len
            )
            offset += 16 + incl_len
            index += 1
    finally:
        report.record_ok(ok)


def read_pcap(
    path: str | Path,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> tuple[int, list[PcapPacket]]:
    """Read a pcap file, returning ``(linktype, packets)``."""
    with open(path, "rb") as stream:
        return read_pcap_stream(stream, strict=strict, report=report)


def read_pcap_stream(
    stream: BinaryIO,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> tuple[int, list[PcapPacket]]:
    """Read a pcap from an open binary stream."""
    header = read_pcap_header(stream)
    packets = list(iter_pcap_records(stream, header, strict=strict, report=report))
    return header.linktype, packets


def write_pcap(
    path: str | Path,
    packets: Iterable[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
    snaplen: int = 262144,
) -> int:
    """Write packets to a little-endian microsecond pcap; returns the count."""
    with open(path, "wb") as stream:
        return write_pcap_stream(stream, packets, linktype=linktype, snaplen=snaplen)


def write_pcap_stream(
    stream: BinaryIO,
    packets: Iterable[PcapPacket],
    linktype: int = LINKTYPE_ETHERNET,
    snaplen: int = 262144,
) -> int:
    stream.write(struct.pack("<IHHiIII", MAGIC_MICRO_LE, 2, 4, 0, 0, snaplen, linktype))
    count = 0
    for packet in packets:
        if snaplen and len(packet.data) > snaplen:
            # Mirror the reader: it rejects over-snaplen records, so
            # refusing to write them keeps every file we emit readable.
            raise PcapError(
                f"packet {count} captured length {len(packet.data)} exceeds "
                f"snaplen {snaplen}"
            )
        ts_sec = int(packet.timestamp)
        ts_usec = int(round((packet.timestamp - ts_sec) * 1e6))
        if ts_usec >= 1_000_000:  # rounding spill-over at .9999995
            ts_sec += 1
            ts_usec -= 1_000_000
        orig_len = packet.orig_len if packet.orig_len is not None else len(packet.data)
        stream.write(struct.pack("<IIII", ts_sec, ts_usec, len(packet.data), orig_len))
        stream.write(packet.data)
        count += 1
    return count


def iter_pcap(
    path: str | Path,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> Iterator[PcapPacket]:
    """Stream packets from a pcap file one at a time.

    Shares :func:`iter_pcap_records` with :func:`read_pcap`, so both
    readers validate the version and snaplen identically.
    """
    with open(path, "rb") as stream:
        header = read_pcap_header(stream)
        yield from iter_pcap_records(stream, header, strict=strict, report=report)
