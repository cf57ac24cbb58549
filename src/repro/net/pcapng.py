"""pcapng (next-generation capture) reader and writer.

Supports the block types needed for interchange with Wireshark-era
captures: Section Header (SHB), Interface Description (IDB), Enhanced
Packet (EPB), and Simple Packet (SPB).  Options are parsed and preserved
as raw (code, value) pairs.  Multiple interfaces per section are
supported; multiple sections concatenate their packets.

The reader takes a ``strict`` flag mirroring :mod:`repro.net.pcap`:
strict mode raises :class:`~repro.net.pcap.PcapError` on the first
malformed block, lenient mode (``strict=False``) quarantines it into a
:class:`~repro.errors.QuarantineReport` instead.  Errors local to one
well-framed block (short EPB/SPB/IDB body, unknown interface id, SPB
before any IDB, a disagreeing trailer length) quarantine that block and
keep going; errors that destroy the block framing (truncation, an
impossible block length) quarantine the tail and stop, salvaging every
packet read so far.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable

from repro.errors import QuarantineReport
from repro.net.pcap import PcapError, PcapPacket

BLOCK_SHB = 0x0A0D0D0A
BLOCK_IDB = 0x00000001
BLOCK_SPB = 0x00000003
BLOCK_EPB = 0x00000006

BYTE_ORDER_MAGIC = 0x1A2B3C4D


@dataclass(frozen=True)
class Interface:
    """One capture interface: linktype, snaplen, and timestamp resolution."""

    linktype: int
    snaplen: int
    ts_resolution: float = 1e-6


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


def _parse_options(data: bytes, endian: str) -> list[tuple[int, bytes]]:
    options = []
    offset = 0
    while offset + 4 <= len(data):
        code, length = struct.unpack(endian + "HH", data[offset : offset + 4])
        offset += 4
        if code == 0:  # opt_endofopt
            break
        value = data[offset : offset + length]
        offset += length + _pad4(length)
        options.append((code, value))
    return options


def _ts_resolution_from_options(options: list[tuple[int, bytes]]) -> float:
    for code, value in options:
        if code == 9 and len(value) >= 1:  # if_tsresol
            raw = value[0]
            if raw & 0x80:
                return 2.0 ** -(raw & 0x7F)
            return 10.0 ** -raw
    return 1e-6


def read_pcapng(
    path: str | Path,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> tuple[list[Interface], list[PcapPacket]]:
    """Read a pcapng file, returning ``(interfaces, packets)``.

    Packet timestamps are converted to float epoch seconds using each
    interface's declared resolution.
    """
    with open(path, "rb") as stream:
        return read_pcapng_stream(stream, strict=strict, report=report)


def read_pcapng_stream(
    stream: BinaryIO,
    *,
    strict: bool = True,
    report: QuarantineReport | None = None,
) -> tuple[list[Interface], list[PcapPacket]]:
    if report is None:
        report = QuarantineReport()
    interfaces: list[Interface] = []
    packets: list[PcapPacket] = []
    try:
        _read_blocks(stream, strict, report, interfaces, packets)
    finally:
        # Every kept packet is one ok record, recorded once when the
        # capture ends or raises: not a metric lookup per record.
        report.record_ok(len(packets))
    return interfaces, packets


def _read_blocks(
    stream: BinaryIO,
    strict: bool,
    report: QuarantineReport,
    interfaces: list[Interface],
    packets: list[PcapPacket],
) -> None:
    """Fill *interfaces* and *packets* from the blocks of *stream*."""
    endian = "<"
    offset = 0
    index = 0

    def fail(reason: str, detail: str, data: bytes = b"") -> None:
        """Framing-destroying corruption: raise, or quarantine the tail."""
        if strict:
            raise PcapError(detail)
        report.quarantine_tail(index, offset, reason, detail, data=data)

    def skip(reason: str, detail: str, data: bytes = b"") -> None:
        """Block-local corruption: raise, or quarantine just this block."""
        if strict:
            raise PcapError(detail)
        report.quarantine(index, offset, reason, detail, data=data)

    while True:
        head = stream.read(8)
        if not head:
            break
        if len(head) != 8:
            fail(
                "partial-block-header",
                "truncated pcapng: partial block header",
                data=head,
            )
            break
        (block_type,) = struct.unpack(endian + "I", head[:4])
        if block_type == BLOCK_SHB:
            # Byte order may change per section; peek at the magic.
            magic_bytes = stream.read(4)
            if len(magic_bytes) != 4:
                fail("shb-no-magic", "truncated pcapng: missing byte-order magic")
                break
            (magic_le,) = struct.unpack("<I", magic_bytes)
            endian = "<" if magic_le == BYTE_ORDER_MAGIC else ">"
            (block_len,) = struct.unpack(endian + "I", head[4:])
            if block_len < 28:
                fail("shb-too-short", f"SHB too short: {block_len}")
                break
            body = stream.read(block_len - 12)
            if len(body) != block_len - 12:
                fail("shb-truncated", "truncated pcapng: SHB body", data=body)
                break
            offset += block_len
            index += 1
            continue
        (block_len,) = struct.unpack(endian + "I", head[4:])
        if block_len < 12 or block_len % 4:
            fail("bad-block-length", f"bad block length {block_len}")
            break
        body = stream.read(block_len - 12)
        if len(body) != block_len - 12:
            fail("block-truncated", "truncated pcapng: block body", data=body)
            break
        trailer = stream.read(4)
        if len(trailer) != 4:
            fail("trailer-truncated", "truncated pcapng: block trailer", data=body)
            break
        (trailer_len,) = struct.unpack(endian + "I", trailer)
        if trailer_len != block_len:
            # The leading length already framed the block, so lenient
            # mode can drop just this block and stay synchronized.
            skip(
                "trailer-mismatch",
                f"block length mismatch: {block_len} != {trailer_len}",
                data=body,
            )
            offset += block_len
            index += 1
            continue
        if block_type == BLOCK_IDB:
            if len(body) < 8:
                skip("idb-short", f"IDB body too short: {len(body)} bytes", data=body)
                offset += block_len
                index += 1
                continue
            linktype, _reserved, snaplen = struct.unpack(endian + "HHI", body[:8])
            options = _parse_options(body[8:], endian)
            interfaces.append(
                Interface(
                    linktype=linktype,
                    snaplen=snaplen,
                    ts_resolution=_ts_resolution_from_options(options),
                )
            )
        elif block_type == BLOCK_EPB:
            if len(body) < 20:
                skip("epb-short", f"EPB body too short: {len(body)} bytes", data=body)
                offset += block_len
                index += 1
                continue
            iface_id, ts_high, ts_low, cap_len, orig_len = struct.unpack(
                endian + "IIIII", body[:20]
            )
            if iface_id >= len(interfaces):
                skip(
                    "epb-unknown-interface",
                    f"EPB references unknown interface {iface_id}",
                    data=body[20 : 20 + cap_len],
                )
                offset += block_len
                index += 1
                continue
            data = body[20 : 20 + cap_len]
            if len(data) != cap_len:
                skip(
                    "epb-short-data",
                    "EPB captured data shorter than declared",
                    data=data,
                )
                offset += block_len
                index += 1
                continue
            resolution = interfaces[iface_id].ts_resolution
            timestamp = ((ts_high << 32) | ts_low) * resolution
            packets.append(PcapPacket(timestamp=timestamp, data=data, orig_len=orig_len))
        elif block_type == BLOCK_SPB:
            if not interfaces:
                skip(
                    "spb-before-idb",
                    "SPB before any interface description",
                    data=body[4:],
                )
                offset += block_len
                index += 1
                continue
            if len(body) < 4:
                skip("spb-short", f"SPB body too short: {len(body)} bytes", data=body)
                offset += block_len
                index += 1
                continue
            (orig_len,) = struct.unpack(endian + "I", body[:4])
            cap_len = min(orig_len, interfaces[0].snaplen or orig_len)
            data = body[4 : 4 + cap_len]
            packets.append(PcapPacket(timestamp=0.0, data=data, orig_len=orig_len))
        # Unknown block types (NRB, ISB, custom) are skipped by design.
        offset += block_len
        index += 1


def write_pcapng(
    path: str | Path,
    packets: Iterable[PcapPacket],
    linktype: int = 1,
    snaplen: int = 262144,
) -> int:
    """Write packets to a single-interface little-endian pcapng file."""
    with open(path, "wb") as stream:
        return write_pcapng_stream(stream, packets, linktype=linktype, snaplen=snaplen)


def _write_block(stream: BinaryIO, block_type: int, body: bytes) -> None:
    padding = b"\x00" * _pad4(len(body))
    total = 12 + len(body) + len(padding)
    stream.write(struct.pack("<II", block_type, total))
    stream.write(body + padding)
    stream.write(struct.pack("<I", total))


def write_pcapng_stream(
    stream: BinaryIO,
    packets: Iterable[PcapPacket],
    linktype: int = 1,
    snaplen: int = 262144,
) -> int:
    shb_body = struct.pack("<IHHq", BYTE_ORDER_MAGIC, 1, 0, -1)
    _write_block(stream, BLOCK_SHB, shb_body)
    idb_body = struct.pack("<HHI", linktype, 0, snaplen)
    _write_block(stream, BLOCK_IDB, idb_body)
    count = 0
    for packet in packets:
        if snaplen and len(packet.data) > snaplen:
            raise PcapError(
                f"packet {count} captured length {len(packet.data)} exceeds "
                f"snaplen {snaplen}"
            )
        ticks = int(round(packet.timestamp * 1e6))
        orig_len = packet.orig_len if packet.orig_len is not None else len(packet.data)
        epb_body = (
            struct.pack(
                "<IIIII",
                0,
                (ticks >> 32) & 0xFFFFFFFF,
                ticks & 0xFFFFFFFF,
                len(packet.data),
                orig_len,
            )
            + packet.data
        )
        _write_block(stream, BLOCK_EPB, epb_body)
        count += 1
    return count
