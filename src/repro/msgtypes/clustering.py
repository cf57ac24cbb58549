"""Clustering messages into message types (NEMETYL substrate).

Reuses the field-type machinery: the message dissimilarity matrix feeds
the same k-NN-ECDF epsilon auto-configuration (Algorithm 1) and DBSCAN.
The result groups trace messages into inferred message types, which
downstream analyses (per-type format inference, state machines) build
on.

:func:`cluster_message_types` is the pipeline stage: it scores the
per-message segment sequences against an *existing* unique-segment
dissimilarity matrix — the field-type pipeline's own — so the batch
``analyze()`` path, a prebuilt-matrix ``cluster_matrix()`` path, and
the incremental session all derive identical message-type labels from
identical field-type state.  :class:`MessageTypeClusterer` is the
standalone convenience wrapper that segments a trace and builds the
matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.autoconf import configure
from repro.core.dbscan import DbscanResult, dbscan
from repro.core.kneedle import DEFAULT_SENSITIVITY
from repro.core.matrix import DissimilarityMatrix
from repro.core.segments import Segment, unique_segments
from repro.msgtypes.similarity import GAP_PENALTY, indexed_sequences, score_alignments
from repro.net.trace import Trace
from repro.obs.tracer import get_tracer
from repro.segmenters.base import Segmenter


@dataclass
class MessageTypeResult:
    """Inferred message types for one trace.

    ``trace`` is None when the stage ran from segments + matrix alone
    (the pipeline integration); the standalone
    :class:`MessageTypeClusterer` always attaches the trace it
    segmented.
    """

    trace: Trace | None
    distances: np.ndarray
    epsilon: float
    min_samples: int
    dbscan_result: DbscanResult

    @property
    def labels(self) -> np.ndarray:
        """Per-message type labels (-1 = noise)."""
        return self.dbscan_result.labels

    @property
    def type_count(self) -> int:
        """Number of inferred message types."""
        return self.dbscan_result.cluster_count

    @property
    def noise_count(self) -> int:
        """Messages assigned to no type."""
        return len(self.dbscan_result.noise)

    def members(self, message_type: int) -> list[int]:
        """Message indices belonging to *message_type*."""
        return self.dbscan_result.members(message_type).tolist()

    def assignments(self) -> list[tuple[int, int]]:
        """(message_index, type_label) pairs; -1 labels noise."""
        return [(i, int(label)) for i, label in enumerate(self.labels)]

    def sizes(self) -> list[int]:
        """Member count per message type, largest first."""
        return sorted(
            (len(self.dbscan_result.members(t)) for t in range(self.type_count)),
            reverse=True,
        )


def cluster_message_types(
    segments: list[Segment],
    message_count: int,
    *,
    matrix: DissimilarityMatrix | None = None,
    trace: Trace | None = None,
    gap_penalty: float = GAP_PENALTY,
    sensitivity: float = DEFAULT_SENSITIVITY,
    smoothness: float | None = None,
    min_segment_length: int = 2,
) -> MessageTypeResult:
    """Cluster *message_count* messages by continuous segment similarity.

    *matrix* is the unique-segment dissimilarity matrix the alignment
    scores segment pairs against; pass the field-type pipeline's
    ``result.matrix`` to type messages from the exact state the field
    stage computed (built from scratch when None).  Runs inside a
    ``msgtypes.similarity`` span (the alignment work) and a
    ``msgtypes.cluster`` span (epsilon, types, noise): the record of
    what the stage did and how long it took.
    """
    tracer = get_tracer()
    with tracer.span(
        "msgtypes.similarity", messages=message_count, segments=len(segments)
    ) as similarity_span:
        if matrix is None:
            uniques = unique_segments(segments, min_length=min_segment_length)
            matrix = DissimilarityMatrix.build(uniques)
        index_of = {u.data: i for i, u in enumerate(matrix.segments)}
        indexed = indexed_sequences(segments, message_count, index_of)
        distances, work = score_alignments(indexed, matrix.values, gap_penalty)
        similarity_span.set(
            unique_segments=len(matrix),
            pairs=work.pairs,
            cells=work.cells,
            padded_cells=work.padded_cells,
        )
    with tracer.span("msgtypes.cluster", messages=message_count) as cluster_span:
        # Algorithm 1 over the message distances: the message matrix is
        # wrapped as a DissimilarityMatrix (configure only reads counts,
        # values and k-NN columns, never the segment objects).
        auto = configure(
            DissimilarityMatrix(segments=[None] * message_count, values=distances),
            sensitivity=sensitivity,
            smoothness=smoothness,
        )
        result = dbscan(distances, auto.epsilon, auto.min_samples)
        cluster_span.set(
            epsilon=auto.epsilon,
            min_samples=auto.min_samples,
            types=result.cluster_count,
            noise=len(result.noise),
        )
    return MessageTypeResult(
        trace=trace,
        distances=distances,
        epsilon=auto.epsilon,
        min_samples=auto.min_samples,
        dbscan_result=result,
    )


class MessageTypeClusterer:
    """Cluster whole messages by continuous segment similarity."""

    def __init__(
        self,
        segmenter: Segmenter,
        gap_penalty: float = GAP_PENALTY,
        sensitivity: float = DEFAULT_SENSITIVITY,
    ):
        self.segmenter = segmenter
        self.gap_penalty = gap_penalty
        self.sensitivity = sensitivity

    def cluster(self, trace: Trace) -> MessageTypeResult:
        """Segment the trace, align segment sequences, cluster messages."""
        segments: list[Segment] = self.segmenter.segment(trace)
        return cluster_message_types(
            segments,
            len(trace),
            trace=trace,
            gap_penalty=self.gap_penalty,
            sensitivity=self.sensitivity,
        )
