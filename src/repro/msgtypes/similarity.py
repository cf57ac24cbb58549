"""Continuous segment similarity between messages (NEMETYL's core idea).

Two messages are similar when their *segment sequences* align well:
matching positions contribute the Canberra similarity of the aligned
segments, gaps are penalized.  The pairwise segment dissimilarities are
precomputed once over unique segment values (vectorized), so the
alignment DP only performs table lookups.

The module exposes two layers: :func:`indexed_sequences` /
:func:`alignment_dissimilarities` work from an existing unique-segment
dissimilarity matrix — the message-type stage feeds them the field-type
pipeline's own matrix, which is what makes batch / prebuilt-matrix /
incremental-session message typing produce identical labels — while
:func:`message_dissimilarity_matrix` is the standalone convenience that
builds its matrix from scratch.

:func:`alignment_dissimilarities` runs every message pair through one
batched kernel: pairs sorted by sequence length, cut into batches, each
batch's DP swept a row at a time in numpy.  Every cell performs the
same float64 operations, in the same order, as the per-pair DP kept as
:func:`alignment_dissimilarities_reference` (the oracle the tests and
``benchmarks/bench_msgtypes.py`` compare against), so both return the
same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import DissimilarityMatrix
from repro.core.segments import Segment, unique_segments

GAP_PENALTY = 0.8

#: Most cells (pairs x padded columns) any per-row array of one
#: alignment batch holds: 2^18 float64 cells are 2 MiB, so the kernel's
#: scratch memory stays at a few MiB whatever the message count.
ALIGN_CELL_BUDGET = 1 << 18


@dataclass(frozen=True)
class AlignmentWork:
    """DP work of one :func:`score_alignments` call.

    ``cells / padded_cells`` is the share of the swept cells an
    alignment actually needed; the rest is batch padding.
    """

    pairs: int
    """Alignments run, self-alignments included."""
    cells: int
    """Sum of m*n over those alignments: the DP cells needed."""
    padded_cells: int
    """DP cells swept, batch padding included."""


def segment_sequences(segments: list[Segment], message_count: int) -> list[list[Segment]]:
    """Group a flat segment list into ordered per-message sequences."""
    sequences: list[list[Segment]] = [[] for _ in range(message_count)]
    for segment in segments:
        sequences[segment.message_index].append(segment)
    for sequence in sequences:
        sequence.sort(key=lambda s: s.offset)
    return sequences


def indexed_sequences(
    segments: list[Segment],
    message_count: int,
    index_of: dict[bytes, int],
) -> list[list[int]]:
    """Per-message sequences of unique-segment indices.

    *index_of* maps segment values to their row in the unique-segment
    dissimilarity matrix; values absent from the table (segments
    excluded from clustering, e.g. 1-byte segments) become index -1,
    which the alignment matches with score 0.
    """
    return [
        [index_of.get(s.data, -1) for s in sequence]
        for sequence in segment_sequences(segments, message_count)
    ]


def _sweep(
    padded: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    m: np.ndarray,
    n: np.ndarray,
    distances: np.ndarray,
    gap_penalty: float,
) -> np.ndarray:
    """Needleman–Wunsch scores of one batch of pairs, a DP row at a time.

    Pair k aligns ``padded[rows[k], :m[k]]`` (the DP rows) against
    ``padded[cols[k], :n[k]]`` (the DP columns); pairs are sorted by
    ``m`` ascending, so the pairs still sweeping at row i are a suffix
    of the batch.  Arrays are laid out (column, pair), so each step of
    the sequential left dependency reads and writes one contiguous
    vector across the batch.
    """
    width = int(n.max())
    targets = padded[cols, :width].T
    target_excluded = targets < 0
    targets = np.where(target_excluded, 0, targets)
    previous = np.repeat((-gap_penalty * np.arange(width + 1))[:, None], len(m), axis=1)
    current = np.empty_like(previous)
    up = np.empty((width, len(m)))
    left = np.empty(len(m))
    take = np.empty(len(m), dtype=bool)
    scores = np.empty(len(m))
    lo = 0
    for i in range(1, int(m[-1]) + 1):
        source = padded[rows[lo:], i - 1]
        excluded = target_excluded[:, lo:] | (source < 0)
        match = 1.0 - distances[np.where(source < 0, 0, source), targets[:, lo:]]
        np.copyto(match, 0.0, where=excluded)
        prev, cur = previous[:, lo:], current[:, lo:]
        # diagonal = prev + match; best = max(diagonal, up - gap), as
        # the per-pair DP computes them (match widened to float64 by
        # the addition, exactly as its float64 scratch row does).
        np.add(prev[:-1], match, out=cur[1:])
        np.subtract(prev[1:], gap_penalty, out=up[:, lo:])
        np.maximum(cur[1:], up[:, lo:], out=cur[1:])
        cur[0] = -gap_penalty * i
        # Left dependency: cell j = max(best, cell j-1 - gap), keeping
        # best unless the left term is strictly greater (Python max).
        for j in range(1, width + 1):
            np.subtract(cur[j - 1], gap_penalty, out=left[lo:])
            np.greater(left[lo:], cur[j], out=take[lo:])
            np.copyto(cur[j], left[lo:], where=take[lo:])
        hi = int(np.searchsorted(m, i, side="right"))
        scores[lo:hi] = cur[n[lo:hi], np.arange(hi - lo)]
        previous, current = current, previous
        lo = hi
    return scores


def _batch_size(width: int) -> int:
    """Pairs per batch whose DP rows have *width* columns."""
    return max(1, ALIGN_CELL_BUDGET // (int(width) + 1))


def score_alignments(
    indexed: list[list[int]],
    distances: np.ndarray,
    gap_penalty: float = GAP_PENALTY,
) -> tuple[np.ndarray, AlignmentWork]:
    """:func:`alignment_dissimilarities` plus the DP work it took.

    Aligns every ``i < j`` pair of non-empty sequences, and each
    non-empty sequence against itself, in batches of pairs sorted by
    (column length, row length); a batch is padded to its own longest
    sequences and holds at most :data:`ALIGN_CELL_BUDGET` cells per
    DP-row array.
    """
    count = len(indexed)
    lengths = np.array([len(sequence) for sequence in indexed], dtype=np.int64)
    padded = np.full((count, int(lengths.max(initial=0))), -1, dtype=np.int64)
    for row, sequence in enumerate(indexed):
        padded[row, : len(sequence)] = sequence
    if distances.size == 0:
        # Every index is -1 (no segment in the table): a 1x1 stand-in
        # keeps the masked lookups in bounds.
        distances = np.ones((1, 1), dtype=distances.dtype)

    present = np.flatnonzero(lengths)
    upper = np.triu_indices(len(present))
    first, second = present[upper[0]], present[upper[1]]
    m, n = lengths[first], lengths[second]
    order = np.lexsort((m, n))
    scores = np.empty(len(order))
    padded_cells = 0
    start = 0
    while start < len(order):
        # n rises along the order, so a batch's last pair is its widest:
        # size the batch for the pair that a batch sized for its first
        # pair would reach.
        reach = order[min(start + _batch_size(n[order[start]]), len(order)) - 1]
        stop = min(start + _batch_size(n[reach]), len(order))
        batch = order[start:stop]
        batch = batch[np.argsort(m[batch], kind="stable")]
        scores[batch] = _sweep(
            padded, first[batch], second[batch], m[batch], n[batch], distances, gap_penalty
        )
        padded_cells += int(m[batch].sum()) * int(n[batch].max())
        start = stop
    work = AlignmentWork(
        pairs=len(order), cells=int((m * n).sum()), padded_cells=padded_cells
    )

    self_scores = np.zeros(count)
    diagonal = first == second
    self_scores[first[diagonal]] = scores[diagonal]
    i, j, score = first[~diagonal], second[~diagonal], scores[~diagonal]
    norm = np.where(self_scores[j] > self_scores[i], self_scores[j], self_scores[i])
    positive = norm > 0
    dissimilarity = np.ones(len(score))
    dissimilarity[positive] = 1.0 - score[positive] / norm[positive]
    dissimilarity = np.clip(dissimilarity, 0.0, 1.0)
    out = np.ones((count, count), dtype=np.float64)
    np.fill_diagonal(out, 0.0)
    out[i, j] = dissimilarity
    out[j, i] = dissimilarity
    return out, work


def alignment_dissimilarities(
    indexed: list[list[int]],
    distances: np.ndarray,
    gap_penalty: float = GAP_PENALTY,
) -> np.ndarray:
    """Pairwise message dissimilarities in [0, 1] from index sequences.

    The alignment similarity is normalized by the self-alignment scores:
    ``d(A, B) = 1 - score(A, B) / max(score(A, A), score(B, B))``,
    clipped to [0, 1].  Empty sequences are maximally dissimilar to
    everything (1.0), and so is any pair whose larger self-score is not
    positive — e.g. sequences made only of excluded (-1) segments, even
    identical ones.  Byte-identical to
    :func:`alignment_dissimilarities_reference`.
    """
    return score_alignments(indexed, distances, gap_penalty)[0]


def _align_score(
    a: list[int], b: list[int], distances: np.ndarray, gap_penalty: float
) -> float:
    """Needleman–Wunsch similarity score of two index sequences.

    Match score is ``1 - d`` for the aligned segments' dissimilarity;
    gaps cost ``-gap_penalty``.  Index -1 denotes a segment excluded
    from the distance table (1-byte segments), matched with score 0.
    """
    m, n = len(a), len(b)
    previous = -gap_penalty * np.arange(n + 1)
    for i in range(1, m + 1):
        current = np.empty(n + 1)
        current[0] = -gap_penalty * i
        ai = a[i - 1]
        if ai >= 0:
            b_arr = np.array(b, dtype=np.int64)
            valid = b_arr >= 0
            match_scores = np.zeros(n)
            match_scores[valid] = 1.0 - distances[ai, b_arr[valid]]
        else:
            match_scores = np.zeros(n)
        diagonal = previous[:-1] + match_scores
        up = previous[1:] - gap_penalty
        best = np.maximum(diagonal, up)
        # Left dependency is sequential.
        running = current[0]
        for j in range(1, n + 1):
            running = max(best[j - 1], running - gap_penalty)
            current[j] = running
        previous = current
    return float(previous[-1])


def alignment_dissimilarities_reference(
    indexed: list[list[int]],
    distances: np.ndarray,
    gap_penalty: float = GAP_PENALTY,
) -> np.ndarray:
    """Per-pair oracle for :func:`alignment_dissimilarities`.

    One Python DP per message pair; kept for the tests and the
    message-type benchmark to compare the batched kernel against.
    """
    message_count = len(indexed)
    self_scores = np.array(
        [
            _align_score(seq, seq, distances, gap_penalty) if seq else 0.0
            for seq in indexed
        ]
    )
    out = np.zeros((message_count, message_count), dtype=np.float64)
    for i in range(message_count):
        for j in range(i + 1, message_count):
            if not indexed[i] or not indexed[j]:
                out[i, j] = out[j, i] = 1.0
                continue
            score = _align_score(indexed[i], indexed[j], distances, gap_penalty)
            norm = max(self_scores[i], self_scores[j])
            dissimilarity = 1.0 - score / norm if norm > 0 else 1.0
            out[i, j] = out[j, i] = float(np.clip(dissimilarity, 0.0, 1.0))
    return out


def message_dissimilarity_matrix(
    segments: list[Segment],
    message_count: int,
    gap_penalty: float = GAP_PENALTY,
    min_segment_length: int = 2,
) -> np.ndarray:
    """Pairwise message dissimilarities in [0, 1], matrix built in place.

    Builds the unique-segment dissimilarity matrix from *segments* and
    delegates to :func:`alignment_dissimilarities`; callers that already
    own a matrix (the message-type stage reuses the field pipeline's)
    call the two lower-level helpers directly.
    """
    uniques = unique_segments(segments, min_length=min_segment_length)
    matrix = DissimilarityMatrix.build(uniques)
    index_of = {u.data: i for i, u in enumerate(matrix.segments)}
    indexed = indexed_sequences(segments, message_count, index_of)
    return alignment_dissimilarities(indexed, matrix.values, gap_penalty)
