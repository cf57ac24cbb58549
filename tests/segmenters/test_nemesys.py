"""NEMESYS: bit congruence, the segmenter, and its trace-level pass.

``NemesysSegmenter`` cuts many messages in one pass over their
concatenated payloads.  On every input it must return exactly the
segments of ``nemesys_boundaries_reference``, the per-message loop, so
these tests compare whole segment lists with no tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter1d

from perfbench.captures import write_captures
from repro.net.pcap import read_pcap
from repro.net.reassembly import trace_from_tcp_capture
from repro.net.trace import Trace, TraceMessage, load_trace
from repro.segmenters import nemesys
from repro.segmenters.base import boundaries_to_segments
from repro.segmenters.nemesys import (
    GAUSSIAN_TRUNCATE,
    NemesysSegmenter,
    bit_congruence,
    delta_bc,
    nemesys_boundaries_reference,
    reflect_padded,
    smoothed_delta_bc,
)


def reference_segments(segmenter, payloads):
    """Every message's segments from the per-message reference loop."""
    segments = []
    for index, data in enumerate(payloads):
        boundaries = nemesys_boundaries_reference(
            data, segmenter.sigma, segmenter.char_min_run, segmenter.zero_min_run
        )
        segments += boundaries_to_segments(data, boundaries, index)
    return segments


def as_trace(payloads):
    return Trace(messages=[TraceMessage(data=data) for data in payloads])


class TestBitCongruence:
    def test_identical_bytes(self):
        assert list(bit_congruence(b"\xaa\xaa")) == [1.0]

    def test_complement_bytes(self):
        assert list(bit_congruence(b"\x00\xff")) == [0.0]

    def test_half_match(self):
        # 0x0f vs 0x00: four equal bits.
        assert list(bit_congruence(b"\x0f\x00")) == [0.5]

    def test_short_input(self):
        assert bit_congruence(b"").size == 0
        assert bit_congruence(b"x").size == 0

    @given(st.binary(min_size=2, max_size=32))
    def test_range_property(self, data):
        bc = bit_congruence(data)
        assert bc.size == len(data) - 1
        assert np.all((0.0 <= bc) & (bc <= 1.0))


class TestDelta:
    def test_sizes(self):
        assert delta_bc(b"abc").size == 1
        assert smoothed_delta_bc(b"abcdef").size == 4

    def test_smoothing_reduces_variation(self):
        data = bytes([0, 255] * 20)
        raw = delta_bc(data)
        smooth = smoothed_delta_bc(data)
        assert np.abs(smooth).max() <= np.abs(raw).max() + 1e-9


class TestNemesysSegmenter:
    def test_tiles_message(self):
        seg = NemesysSegmenter()
        data = bytes(range(50))
        segments = seg.segment_message(data, 3)
        assert b"".join(s.data for s in segments) == data
        assert all(s.message_index == 3 for s in segments)

    def test_finds_structure_transition(self):
        # Constant block followed by a very different constant block:
        # bit congruence dips exactly at the transition.
        data = b"\x00" * 8 + b"\xff\x0f\xff\x0f\xff\x0f\xff\x0f"
        boundaries = NemesysSegmenter().boundaries(data)
        assert any(7 <= b <= 9 for b in boundaries), boundaries

    def test_char_sequences_kept_together(self):
        data = b"\x01\x02" + b"hostname-string" + b"\x80\x81\x07\xff"
        seg = NemesysSegmenter()
        segments = seg.segment_message(data, 0)
        text_segments = [s for s in segments if b"hostname" in s.data]
        assert len(text_segments) == 1
        assert text_segments[0].data == b"hostname-string"

    def test_tiny_messages(self):
        seg = NemesysSegmenter()
        for data in (b"", b"a", b"ab"):
            segments = seg.segment_message(data, 0)
            assert b"".join(s.data for s in segments) == data

    def test_segment_trace(self):
        trace = Trace(
            messages=[TraceMessage(data=bytes(range(i, i + 20))) for i in range(5)]
        )
        segments = NemesysSegmenter().segment(trace)
        assert {s.message_index for s in segments} == set(range(5))

    @given(st.binary(max_size=128))
    def test_tiling_property(self, data):
        segments = NemesysSegmenter().segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data


class TestZeroRunRefinement:
    def test_zero_run_isolated_when_enabled(self):
        data = b"\x81\x42\x07" + bytes(20) + b"\x99\x17\xee\x31"
        seg = NemesysSegmenter(zero_min_run=4)
        segments = seg.segment_message(data, 0)
        zero_segments = [s for s in segments if s.data == bytes(20)]
        assert len(zero_segments) == 1
        assert zero_segments[0].offset == 3

    def test_disabled_by_default(self):
        seg = NemesysSegmenter()
        assert seg.zero_min_run is None

    def test_short_zero_runs_untouched(self):
        data = b"\xff\x00\x00\xff" * 4
        seg = NemesysSegmenter(zero_min_run=8)
        segments = seg.segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data

    @given(st.binary(max_size=96))
    def test_tiling_with_zero_refinement(self, data):
        segments = NemesysSegmenter(zero_min_run=3).segment_message(data, 0)
        assert b"".join(s.data for s in segments) == data


#: Pieces of messages: runs of zeros (with a few other bytes), printable
#: text (with a few non-printables), and arbitrary bytes.
_PIECES = st.one_of(
    st.lists(st.sampled_from([0, 0, 0, 0, 1, 0x20, 0xFF]), max_size=24).map(bytes),
    st.lists(
        st.integers(0x20, 0x7E) | st.sampled_from([0x00, 0x0A, 0x7F, 0x80]),
        max_size=24,
    ).map(bytes),
    st.binary(max_size=24),
)
_MESSAGES = st.lists(_PIECES, max_size=5).map(lambda pieces: b"".join(pieces)[:64])


#: Ceiling on a pass's temporaries per payload byte (measured: 37 for one
#: 200 KB message, 47-56 for passes of many small messages).
TEMPORARY_BYTES_PER_BYTE = 128


def traced_segment_trace(segmenter, payloads):
    """The segments, and the traced bytes allocated beyond them at peak."""
    trace = as_trace(payloads)
    tracemalloc.start()
    try:
        segments = segmenter.segment_trace(trace)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return segments, peak - kept


class TestTracePass:
    """The trace-level pass against the per-message reference loop."""

    @settings(max_examples=300, deadline=None)
    @given(
        payloads=st.lists(_MESSAGES, max_size=12),
        sigma=st.sampled_from([0.6, 1.0]),
        char_min_run=st.integers(2, 6),
        zero_min_run=st.none() | st.integers(2, 4),
    )
    def test_segment_trace_equals_reference(
        self, payloads, sigma, char_min_run, zero_min_run
    ):
        # At sigma 1.0 the kernel reaches 4 values to each side, more
        # than the shortest messages' deltas hold.
        segmenter = NemesysSegmenter(sigma, char_min_run, zero_min_run)
        expected = reference_segments(segmenter, payloads)
        assert segmenter.segment_trace(as_trace(payloads)) == expected
        for index, data in enumerate(payloads):
            assert segmenter.segment_message(data, index) == [
                segment for segment in expected if segment.message_index == index
            ]
            assert segmenter.boundaries(data) == nemesys_boundaries_reference(
                data, sigma, char_min_run, zero_min_run
            )

    def test_messages_under_three_bytes_are_never_cut(self):
        # Runs of one byte would cut them, but the reference returns no
        # boundary below 3 bytes.
        payloads = [b"a\x01", b"\x00a", b"", b"\x01\x00", b"a", b"a\x01b\x00c"]
        segmenter = NemesysSegmenter(char_min_run=1, zero_min_run=1)
        expected = reference_segments(segmenter, payloads)
        assert [s.data for s in expected[:4]] == payloads[:2] + payloads[3:5]
        assert segmenter.segment_trace(as_trace(payloads)) == expected

    def test_one_large_message_among_small_ones(self):
        # A 200 KB random message is a pass of its own; the temporaries
        # stay within a fixed number of bytes per byte of the larger of
        # the pass budget and that message.
        rng = np.random.default_rng(20)
        small = [
            rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
            for _ in range(31)
        ]
        large = rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes()
        payloads = small[:16] + [large] + small[16:]
        segmenter = NemesysSegmenter()
        segments, temporaries = traced_segment_trace(segmenter, payloads)
        assert segments == reference_segments(segmenter, payloads)
        assert temporaries <= TEMPORARY_BYTES_PER_BYTE * max(
            nemesys.PASS_BYTES, len(large)
        )

    def test_temporaries_follow_the_pass_budget(self, monkeypatch):
        # 3000 small messages (about 95 KB) in passes of 4 KB: memory
        # follows the budget, not the trace.
        rng = np.random.default_rng(21)
        payloads = [
            rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
            for _ in range(3000)
        ]
        monkeypatch.setattr(nemesys, "PASS_BYTES", 4096)
        segmenter = NemesysSegmenter(zero_min_run=2)
        segments, temporaries = traced_segment_trace(segmenter, payloads)
        assert segments == reference_segments(segmenter, payloads)
        assert temporaries <= TEMPORARY_BYTES_PER_BYTE * 4096

    @pytest.mark.parametrize("workload", ["stateful-pcap", "field-pcap"])
    def test_benchmark_captures(self, workload, tmp_path):
        # The NTP, SMB (over TCP), DHCP and DNS captures perfbench runs.
        for capture in write_captures(workload, 924, "full", tmp_path):
            if capture["transport"] == "tcp":
                _, packets = read_pcap(capture["path"])
                trace = trace_from_tcp_capture(
                    [(packet.timestamp, packet.data) for packet in packets],
                    protocol=capture["protocol"],
                    port=capture["port"],
                )
            else:
                trace = load_trace(
                    capture["path"], protocol=capture["protocol"], port=capture["port"]
                )
            trace = trace.preprocess()
            payloads = [message.data for message in trace]
            for segmenter in (NemesysSegmenter(), NemesysSegmenter(zero_min_run=3)):
                assert segmenter.segment(trace) == reference_segments(
                    segmenter, payloads
                ), capture["protocol"]


class TestScipyReflectPaddingFact:
    """The scipy fact the trace-level smoothing rests on.

    ``gaussian_filter1d`` computes each output value from the values
    within its kernel radius of the (extended) input, in a fixed order.
    So one call over lines padded with their own ``reflect`` extension
    (``reflect_padded``) gives each line's values byte for byte as a
    call on that line alone.  If a scipy release breaks this, this test
    fails by name before any golden fingerprint moves.
    """

    @pytest.mark.parametrize("sigma", [0.6, 1.0])
    def test_one_call_over_reflect_padded_lines_equals_per_line_calls(self, sigma):
        radius = int(GAUSSIAN_TRUNCATE * sigma + 0.5)
        rng = np.random.default_rng(round(sigma * 10))
        lengths = np.repeat(np.arange(1, 3 * radius + 1), 25)
        rng.shuffle(lengths)
        # Bit-congruence deltas (multiples of 1/8) and arbitrary floats.
        values = np.where(
            rng.random(lengths.sum()) < 0.5,
            rng.integers(-8, 9, lengths.sum()) / 8.0,
            rng.standard_normal(lengths.sum()),
        )
        starts = np.cumsum(lengths) - lengths
        source, kept = reflect_padded(starts, lengths, radius)
        smoothed = gaussian_filter1d(values[source], sigma)[kept]
        for start, length in zip(starts, lengths):
            line = values[start : start + length]
            assert (
                smoothed[start : start + length].tobytes()
                == gaussian_filter1d(line, sigma).tobytes()
            ), length
