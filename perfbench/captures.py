"""Seeded inputs for the benchmark's workloads.

Every input is made from the run's ``--seed`` with the repository's own
protocol generators, so the same seed gives byte-identical captures and
message streams.  Batch workloads get real pcap files (UDP datagrams in
Ethernet/IPv4 frames, or SMB over TCP with every message split across
segments, so reassembly is on the path); the stream workload gets JSON
records in the ``repro serve`` wire format.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.net.packet import build_tcp_ipv4_frame, build_udp_ipv4_frame
from repro.net.pcap import PcapPacket, write_pcap
from repro.protocols import get_model

#: Server port per protocol: the filter the analysis is run with.
PORTS = {"dhcp": 67, "dns": 53, "ntp": 123, "smb": 445}
#: Protocols carried over TCP (everything else rides in UDP datagrams).
TCP_PROTOCOLS = ("smb",)

#: Message counts per capture.  "full" is what the benchmark measures;
#: "tiny" runs the same code path in seconds, for the benchmark's tests.
SIZES = {
    "full": {
        "stateful-pcap": (("dhcp", 60), ("dns", 60), ("smb", 60)),
        "field-pcap": (("ntp", 700), ("smb", 240)),
        "serve-stream": (("dns", 600),),
    },
    "tiny": {
        "stateful-pcap": (("dhcp", 24), ("dns", 24), ("smb", 24)),
        "field-pcap": (("ntp", 120), ("smb", 40)),
        "serve-stream": (("dns", 200),),
    },
}

#: Stream shape: messages per ``append`` op, and a ``digest`` after
#: every this many appends.
APPEND_MESSAGES = 10
DIGEST_EVERY = 10


def _udp_packets(messages) -> list[PcapPacket]:
    return [
        PcapPacket(
            timestamp=m.timestamp,
            data=build_udp_ipv4_frame(
                m.data, m.src_ip, m.dst_ip, m.src_port, m.dst_port
            ),
        )
        for m in messages
    ]


def _tcp_packets(messages, rng: random.Random) -> list[PcapPacket]:
    """Each message cut into 2-3 segments at seeded offsets."""
    next_seq: dict[tuple, int] = {}
    packets = []
    for m in messages:
        flow = (m.src_ip, m.dst_ip, m.src_port, m.dst_port)
        seq = next_seq.setdefault(flow, rng.randrange(1, 1 << 31))
        pieces = min(len(m.data), rng.choice((2, 3)))
        cuts = sorted(rng.sample(range(1, len(m.data)), pieces - 1))
        bounds = [0, *cuts, len(m.data)]
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            frame = build_tcp_ipv4_frame(
                m.data[lo:hi], m.src_ip, m.dst_ip, m.src_port, m.dst_port, seq=seq
            )
            packets.append(PcapPacket(timestamp=m.timestamp + j * 1e-5, data=frame))
            seq += hi - lo
        next_seq[flow] = seq
    return packets


def write_captures(workload: str, seed: int, scale: str, directory: Path) -> list[dict]:
    """Write the workload's pcaps into *directory*; returns capture specs."""
    specs = []
    for protocol, count in SIZES[scale][workload]:
        messages = sorted(
            get_model(protocol).generate(count, seed=seed).messages,
            key=lambda m: m.timestamp,
        )
        tcp = protocol in TCP_PROTOCOLS
        packets = (
            _tcp_packets(messages, random.Random(f"{seed}/{protocol}"))
            if tcp
            else _udp_packets(messages)
        )
        path = directory / f"{workload}-{protocol}.pcap"
        write_pcap(path, packets)
        specs.append(
            {
                "protocol": protocol,
                "port": PORTS[protocol],
                "transport": "tcp" if tcp else "udp",
                "path": str(path),
                "messages": len(messages),
                "frames": len(packets),
            }
        )
    return specs


def stream_messages(seed: int, scale: str, number: int):
    """Messages of the serve-stream workload's stream *number*, in
    capture order; every stream of a run has different messages."""
    ((protocol, count),) = SIZES[scale]["serve-stream"]
    stream_seed = random.Random(f"{seed}/stream/{number}").getrandbits(32)
    return protocol, get_model(protocol).generate(count, seed=stream_seed).messages


def stream_ops(messages) -> list[dict]:
    """``append`` ops of APPEND_MESSAGES records, a ``digest`` after every
    DIGEST_EVERY-th append, and a closing ``digest`` if the last append
    was not followed by one."""
    ops: list[dict] = []
    appends = 0
    for start in range(0, len(messages), APPEND_MESSAGES):
        chunk = messages[start : start + APPEND_MESSAGES]
        ops.append({"op": "append", "messages": [_record(m) for m in chunk]})
        appends += 1
        if appends % DIGEST_EVERY == 0:
            ops.append({"op": "digest"})
    if ops[-1]["op"] != "digest":
        ops.append({"op": "digest"})
    return ops


def _record(message) -> dict:
    record = {"data": message.data.hex(), "timestamp": message.timestamp}
    if message.src_ip is not None:
        record["src_ip"] = message.src_ip.hex()
        record["dst_ip"] = message.dst_ip.hex()
    if message.src_port is not None:
        record["src_port"] = message.src_port
        record["dst_port"] = message.dst_port
    return record
