"""Segmenter framework (paper Section III-B).

A segmenter turns a trace into field-candidate :class:`Segment` lists.
Heuristic segmenters work on raw bytes only; the ground-truth segmenter
wraps a protocol dissector.  Segmenters whose resource guards trip raise
:class:`SegmenterResourceError` — the evaluation reports such runs as
"fails", mirroring the four failed analysis runs in the paper's
Table II.
"""

from __future__ import annotations

import abc

from repro.core.segments import Segment
from repro.net.trace import Trace
from repro.obs.tracer import get_tracer


class SegmenterResourceError(RuntimeError):
    """Raised when a segmenter exceeds its runtime/memory work budget."""


class Segmenter(abc.ABC):
    """Splits every message of a trace into field candidates.

    :meth:`segment` is the public entry point; it wraps the actual
    segmentation (:meth:`segment_trace`, the subclass override point)
    in one ``segment`` span on the active tracer, tagged with the
    segmenter, the messages and payload bytes segmented and the count
    of emitted field candidates, so every pipeline run records its
    segmentation stage uniformly across heuristics.
    """

    #: short identifier used in tables ("nemesys", "netzob", "csp", ...)
    name: str = "segmenter"

    #: True when every message is segmented independently (the default
    #: per-message loop, or a pass over many messages that cuts each one
    #: as that loop would), so segmenting a trace chunk by chunk yields
    #: the same segments as one pass over the whole trace.  Segmenters
    #: that override :meth:`segment_trace` with trace-global strategies
    #: (alignment, corpus-wide pattern mining) set this False; the
    #: incremental analysis session refuses them.
    incremental: bool = True

    @abc.abstractmethod
    def segment_message(self, data: bytes, message_index: int = 0) -> list[Segment]:
        """Segment a single message."""

    def segment(self, trace: Trace) -> list[Segment]:
        """Segment every message, recorded as one ``segment`` span."""
        with get_tracer().span(
            "segment",
            segmenter=self.name,
            messages=len(trace),
            bytes=trace.total_bytes,
        ) as span:
            segments = self.segment_trace(trace)
            span.set(segments=len(segments))
        return segments

    def segment_trace(self, trace: Trace) -> list[Segment]:
        """Segmentation strategy; default is per-message independent."""
        segments: list[Segment] = []
        for index, message in enumerate(trace):
            segments.extend(self.segment_message(message.data, index))
        return segments


def boundaries_to_segments(
    data: bytes, boundaries: list[int], message_index: int
) -> list[Segment]:
    """Convert sorted inner boundary offsets into contiguous segments.

    *boundaries* are cut positions strictly inside (0, len(data)); start
    and end are implicit.  Duplicates and out-of-range positions are
    ignored defensively.
    """
    cuts = sorted({b for b in boundaries if 0 < b < len(data)})
    edges = [0] + cuts + [len(data)]
    return [
        Segment(message_index=message_index, offset=start, data=data[start:end])
        for start, end in zip(edges, edges[1:])
        if end > start
    ]


def segments_to_boundaries(segments: list[Segment]) -> list[int]:
    """Inner boundary offsets of a message's segment list."""
    return [s.offset for s in sorted(segments, key=lambda s: s.offset)[1:]]
