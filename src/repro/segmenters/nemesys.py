"""NEMESYS heuristic segmenter (Kleber, Kopp, Kargl — WOOT 2018).

NEMESYS infers probable field boundaries from the *bit congruence* of
consecutive bytes: the fraction of equal bits between byte i-1 and
byte i.  Field starts show up as distinctive changes in this signal.
The algorithm:

1. compute the bit congruence ``BC(i)`` for every byte,
2. take its delta ``dBC(i) = BC(i) - BC(i-1)``,
3. smooth with a small Gaussian kernel (sigma 0.6),
4. place a boundary at the inflection point of each rising edge of the
   smoothed delta (the steepest ascent between a local minimum and the
   following local maximum),
5. apply the paper's "safety net" refinements: isolate printable
   character runs as their own segments and merge runs of zero bytes
   with a trailing boundary correction.

Boundary errors on high-entropy fields (timestamps, signatures) are an
inherent property of the heuristic — the paper's Figure 3 shows exactly
this failure, which we reproduce faithfully.

The segmenter runs these steps on many messages at once, over their
concatenated payloads (:func:`_pass_edges`): every step is a whole-array
operation, and every run it finds stops at a message's edge.  One
``gaussian_filter1d`` call smooths all messages, each padded with its
own ``reflect`` extension, so every smoothed value is scipy's arithmetic
on the values a per-message call sees, and the cuts are the per-message
ones.  :func:`nemesys_boundaries_reference` computes them one message at
a time, as the test oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter1d

from repro.core.segments import Segment
from repro.net.trace import Trace
from repro.segmenters.base import Segmenter

_POPCOUNT = np.array([bin(x).count("1") for x in range(256)], dtype=np.float64)

#: Payload bytes per pass of whole messages.  A pass holds a few dozen
#: bytes of numpy temporaries per payload byte, so this bounds them; a
#: longer message is a pass of its own.
PASS_BYTES = 1 << 16

#: ``gaussian_filter1d``'s default ``truncate``: its kernel reaches
#: ``int(GAUSSIAN_TRUNCATE * sigma + 0.5)`` values to each side.
GAUSSIAN_TRUNCATE = 4.0


def bit_congruence(data: bytes) -> np.ndarray:
    """BC(i) for i in [1, len): fraction of equal bits of bytes i-1, i."""
    if len(data) < 2:
        return np.zeros(0)
    arr = np.frombuffer(data, dtype=np.uint8)
    xor = np.bitwise_xor(arr[:-1], arr[1:])
    return 1.0 - _POPCOUNT[xor] / 8.0


def delta_bc(data: bytes) -> np.ndarray:
    """Delta of the bit congruence, aligned so index i maps to byte i+2."""
    bc = bit_congruence(data)
    if bc.size < 2:
        return np.zeros(0)
    return np.diff(bc)


def smoothed_delta_bc(data: bytes, sigma: float = 0.6) -> np.ndarray:
    delta = delta_bc(data)
    if delta.size == 0:
        return delta
    return gaussian_filter1d(delta, sigma=sigma)


def reflect_padded(
    starts: np.ndarray, lengths: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather and keep indices of lines padded with their own extension.

    The lines are ``values[starts[i]:][:lengths[i]]``, all ``lengths``
    >= 1.  Returns ``(source, kept)``: ``values[source]`` is every line,
    in order, padded with *radius* values on each side as
    ``gaussian_filter1d``'s ``reflect`` mode pads that line alone
    (``d c b a | a b c d | d c b a``, mirrored again for lines shorter
    than *radius*), and ``kept`` are the padded positions of the lines'
    own values.
    """
    padded = lengths + 2 * radius
    local = np.arange(padded.sum()) - np.repeat(
        np.cumsum(padded) - padded + radius, padded
    )
    period = np.repeat(lengths, padded)
    kept = np.flatnonzero((local >= 0) & (local < period))
    local %= 2 * period
    source = np.where(local < period, local, 2 * period - 1 - local)
    source += np.repeat(starts, padded)
    return source, kept


def _rising_inflections(
    delta: np.ndarray, starts: np.ndarray, lengths: np.ndarray, sigma: float
) -> np.ndarray:
    """Cut at the steepest step of every rising edge of the smoothed delta.

    *delta* is the bit-congruence delta of concatenated payloads.  The
    messages start at *starts* and are *lengths* (all >= 5) bytes long,
    so message i's delta is ``delta[starts[i]:][:lengths[i] - 2]``.
    Returns the cuts as positions in the payloads, ascending.
    """
    if not lengths.size:
        return np.zeros(0, dtype=np.intp)
    size = lengths - 2
    source, kept = reflect_padded(
        starts, size, int(GAUSSIAN_TRUNCATE * float(sigma) + 0.5)
    )
    smoothed = gaussian_filter1d(delta[source], sigma)[kept]
    first = np.cumsum(size) - size
    # A rising edge is a maximal run of steps up, and no run crosses
    # into the next message.  Its cut goes after its first steepest step,
    # the one np.argmax picks.
    rising = smoothed[1:] > smoothed[:-1]
    rising[first[1:] - 1] = False
    begins = rising.copy()
    begins[1:] &= ~rising[:-1]
    run_starts = np.flatnonzero(begins)
    if not run_starts.size:
        return run_starts
    slope = smoothed[1:] - smoothed[:-1]
    steepest = np.maximum.reduceat(np.where(rising, slope, -np.inf), run_starts)
    # Steps before the first run look up run -1, but none of them rises.
    steps = np.flatnonzero(rising & (slope == steepest[np.cumsum(begins) - 1]))
    steps = steps[np.searchsorted(steps, run_starts)]
    owner = np.searchsorted(first, steps, side="right") - 1
    # Step k of a message's smoothed delta rises to its delta[k + 1], the
    # boundary before byte k + 3.
    return steps + (starts - first)[owner] + 3


def _long_runs(
    mask: np.ndarray, edges: np.ndarray, min_run: int
) -> tuple[np.ndarray, np.ndarray]:
    """Starts and stops of the runs of *mask* at least *min_run* long.

    A run is a maximal stretch of True that does not cross a message
    edge; *edges* is True at every message start and at the end.
    """
    before = np.concatenate(([False], mask))
    after = np.concatenate((mask, [False]))
    starts = np.flatnonzero(after & (edges | ~before))
    stops = np.flatnonzero(before & (edges | ~after))
    long = stops - starts >= min_run
    return starts[long], stops[long]


def _pass_edges(
    payload: bytes,
    starts: np.ndarray,
    sigma: float,
    char_min_run: int,
    zero_min_run: int | None,
) -> np.ndarray:
    """Sorted segment edges of the messages concatenated in *payload*.

    *starts* holds every message's start and then ``len(payload)``.
    Returns those positions together with every message's inner cuts.
    """
    flat = np.frombuffer(payload, dtype=np.uint8)
    lengths = starts[1:] - starts[:-1]
    edges = np.zeros(flat.size + 1, dtype=bool)
    edges[starts] = True
    bc = bit_congruence(payload)
    smoothed = lengths >= 5
    cuts = _rising_inflections(
        bc[1:] - bc[:-1], starts[:-1][smoothed], lengths[smoothed], sigma
    )
    # Messages shorter than 3 bytes are never cut.
    eligible = np.repeat(lengths >= 3, lengths)
    refinements = [((flat >= 0x20) & (flat < 0x7F), char_min_run)]
    if zero_min_run is not None:
        refinements.append((flat == 0, zero_min_run))
    for mask, min_run in refinements:
        run_starts, run_stops = _long_runs(mask & eligible, edges, min_run)
        if run_starts.size:
            # Drop the cuts inside a run; cut at its edges instead.
            run = np.searchsorted(run_starts, cuts) - 1
            cuts = np.concatenate(
                (
                    cuts[(run < 0) | (cuts >= run_stops[run])],
                    run_starts,
                    run_stops,
                )
            )
    edges[cuts] = True
    return np.flatnonzero(edges)


def nemesys_boundaries_reference(
    data: bytes,
    sigma: float = 0.6,
    char_min_run: int = 4,
    zero_min_run: int | None = None,
) -> list[int]:
    """Inner boundary offsets of one message, one Python step at a time.

    The per-message form of :meth:`NemesysSegmenter.boundaries`: a walk
    over the smoothed delta for the rising edges and one over the bytes
    for each refinement's runs.  Slow by construction; the oracle that
    tests and the microbenchmark pin the trace-level pass to.
    """
    if len(data) < 3:
        return []
    smoothed = smoothed_delta_bc(data, sigma=sigma)
    # Index i of the delta maps to the boundary *before* byte i+2:
    # delta[i] = BC(i+2) - BC(i+1) compares the transitions around
    # byte i+1/i+2.
    boundaries = []
    if smoothed.size >= 3:
        slope = np.diff(smoothed)
        i = 0
        size = smoothed.size
        while i < size - 1:
            # Find a local minimum (start of a rising edge).
            if smoothed[i + 1] > smoothed[i] and (
                i == 0 or smoothed[i - 1] >= smoothed[i]
            ):
                j = i
                while j < size - 1 and smoothed[j + 1] > smoothed[j]:
                    j += 1
                # Steepest single-step ascent within (i, j].
                steepest = i + int(np.argmax(slope[i:j])) + 1
                boundaries.append(steepest + 2)
                i = j
            else:
                i += 1
    refinements = [(lambda byte: 0x20 <= byte < 0x7F, char_min_run)]
    if zero_min_run is not None:
        refinements.append((lambda byte: byte == 0, zero_min_run))
    for member, min_run in refinements:
        starts: list[int] = []
        ends: list[int] = []
        run_start = None
        for index in range(len(data) + 1):
            inside = index < len(data) and member(data[index])
            if inside and run_start is None:
                run_start = index
            elif not inside and run_start is not None:
                if index - run_start >= min_run:
                    starts.append(run_start)
                    ends.append(index)
                run_start = None
        if starts:
            interior = set()
            for s, e in zip(starts, ends):
                interior.update(range(s + 1, e))
            boundaries = [b for b in boundaries if b not in interior] + starts + ends
    return sorted({b for b in boundaries if 0 < b < len(data)})


class NemesysSegmenter(Segmenter):
    """Bit-congruence-based heuristic segmentation."""

    name = "nemesys"

    def __init__(
        self,
        sigma: float = 0.6,
        char_min_run: int = 4,
        zero_min_run: int | None = None,
    ):
        self.sigma = sigma
        #: Printable runs of at least this length become one segment.
        self.char_min_run = char_min_run
        #: Isolate zero runs of at least this length as their own
        #: segments (the NEMESYS paper's padding refinement).  Off by
        #: default to keep the Table II results at their recorded
        #: configuration; enable for padding-heavy protocols (DHCP).
        self.zero_min_run = zero_min_run

    def boundaries(self, data: bytes) -> list[int]:
        """Inner boundary offsets for one message."""
        edges = _pass_edges(
            data,
            np.array([0, len(data)]),
            self.sigma,
            self.char_min_run,
            self.zero_min_run,
        )
        return edges[1:-1].tolist()

    def segment_message(self, data: bytes, message_index: int = 0) -> list[Segment]:
        return self._segments([data], message_index)

    def segment_trace(self, trace: Trace) -> list[Segment]:
        """Every message's segments, in passes of at most
        :data:`PASS_BYTES` payload bytes of whole messages."""
        payloads = [message.data for message in trace]
        segments: list[Segment] = []
        first = size = 0
        for index, payload in enumerate(payloads):
            if index > first and size + len(payload) > PASS_BYTES:
                segments += self._segments(payloads[first:index], first)
                first, size = index, 0
            size += len(payload)
        segments += self._segments(payloads[first:], first)
        return segments

    def _segments(self, payloads: list[bytes], first_index: int) -> list[Segment]:
        """The segments of *payloads*, numbered from *first_index*."""
        starts = np.zeros(len(payloads) + 1, dtype=np.intp)
        np.cumsum([len(payload) for payload in payloads], out=starts[1:])
        payload = b"".join(payloads)
        edges = _pass_edges(
            payload, starts, self.sigma, self.char_min_run, self.zero_min_run
        )
        owner = np.searchsorted(starts, edges[:-1], side="right") - 1
        return [
            Segment(first_index + index, begin - start, payload[begin:end])
            for index, start, begin, end in zip(
                owner.tolist(),
                starts[owner].tolist(),
                edges[:-1].tolist(),
                edges[1:].tolist(),
            )
        ]
