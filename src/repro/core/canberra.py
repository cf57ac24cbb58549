"""Canberra dissimilarity between byte-value vectors (paper Section III-C).

Two layers:

- :func:`canberra_distance` — the classic Canberra distance of Lance &
  Williams (1966) between equal-length vectors, normalized by the
  dimension so it lies in [0, 1].
- :func:`canberra_dissimilarity` — the length-tolerant extension from
  the authors' NEMETYL paper (Kleber et al., INFOCOM 2020): the shorter
  segment slides over the longer one; the best-matching overlap is
  combined with a penalty for the non-overlapping remainder:

  ``d(u, v) = (m * d_min + (n - m) * p) / n``  with
  ``p = pf + (1 - pf) * d_min`` and ``pf`` the penalty floor (0.33).

  The penalty interpolates between a floor for the length mismatch and
  the observed overlap dissimilarity, keeping ``d`` within [0, 1],
  monotone in the overlap quality, and monotone in the length mismatch
  (see DESIGN.md for the rationale where the paper under-specifies).

On top of the per-pair functions sit the **batch kernels** the matrix
builder uses, plus their reference oracles:

- *binned* (:func:`equal_length_cross_rows`, :func:`cross_length_rows`)
  — row ranges of whole blocks at once.  Because byte values live in
  ``[0, 255]``, every Canberra term is one of 256×256 possible values;
  uint8 blocks are resolved through a precomputed 512 KB lookup table
  (:func:`byte_term_lut`) instead of the abs/add/divide/where chain.
  The mean term of two rows narrower than :data:`NUMPY_PAIRWISE_SUM_MIN`
  bytes is a left-to-right sum of per-position LUT planes (one
  ``(rows, cols)`` plane per byte position, then one division), which
  is the order numpy's ``mean`` sums so few values in, so the bytes are
  the per-pair definition's; wider rows gather every term and take
  ``mean`` itself.  One rectangular kernel serves equal lengths: a
  group against itself (the LUT is exactly symmetric) or against
  another group of the same length.
  Unequal lengths go through a *window table* (:func:`window_table`):
  the distinct width-``m`` windows of a group of longer segments, each
  stored once, plus every segment's window indices.  A short row's mean
  term against each distinct window is computed once and each long
  segment takes the minimum over its own indices, so a window that
  recurs across offsets, segments or lengths costs one mean, not one
  per occurrence.  Work is chunked to a fixed temporary budget so peak
  memory stays bounded.
- *reference* (:func:`pairwise_equal_length_reference`,
  :func:`equal_length_cross_block_reference`,
  :func:`cross_length_block_reference`, and the whole-matrix
  :func:`dissimilarity_matrix_reference`) — one Python-level
  :func:`canberra_distance` / :func:`canberra_dissimilarity` call per
  pair.  Slow by construction, kept as the oracle the parity tests and
  the kernel-grid microbenchmark pin the binned kernel against; no
  runtime option selects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Penalty floor for non-overlapping bytes of unequal-length segments.
#: Chosen so that a segment of half the other's length keeps a floor
#: dissimilarity of 0.3 even on a perfect sliding match — below that,
#: short random values (counters, ids) chain into longer high-entropy
#: fields (timestamps, signatures) through coincidental substring
#: matches and drag whole types together (observed on SMB and AWDL).
DEFAULT_PENALTY_FACTOR = 0.6


def canberra_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise Canberra terms ``|x-y| / (x+y)`` with 0/0 := 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    denominator = np.abs(x) + np.abs(y)
    numerator = np.abs(x - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(denominator > 0, numerator / denominator, 0.0)
    return terms


def canberra_distance(x, y) -> float:
    """Normalized Canberra distance between equal-length byte vectors."""
    x = _as_vector(x)
    y = _as_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        return 0.0
    return float(canberra_terms(x, y).mean())


def canberra_dissimilarity(
    u, v, penalty_factor: float = DEFAULT_PENALTY_FACTOR
) -> float:
    """Length-tolerant Canberra dissimilarity in [0, 1].

    Equal-length inputs reduce to :func:`canberra_distance`.
    """
    u = _as_vector(u)
    v = _as_vector(v)
    if len(u) > len(v):
        u, v = v, u
    m, n = len(u), len(v)
    if m == 0:
        return 1.0 if n else 0.0
    if m == n:
        return float(canberra_terms(u, v).mean())
    d_min = sliding_min_distance(u, v)
    penalty = penalty_factor + (1.0 - penalty_factor) * d_min
    return float((m * d_min + (n - m) * penalty) / n)


def sliding_min_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Minimum mean Canberra term over all alignments of *u* within *v*."""
    m, n = len(u), len(v)
    windows = np.lib.stride_tricks.sliding_window_view(v, m)  # (n-m+1, m)
    terms = canberra_terms(u[np.newaxis, :], windows)
    return float(terms.mean(axis=1).min())


def _as_vector(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)
    return np.asarray(data, dtype=np.float64)


#: Cap on temporary broadcast cells (float64) per chunk: ~160 MB.  Also
#: the tile-size target of the matrix builder's row-tile queue — one
#: work item covers about one chunk's worth of gather cells, so tile
#: boundaries are deterministic (worker-count independent) and per-tile
#: temporaries stay inside the budget an inline run chunks under.
CHUNK_CELL_BUDGET = 20_000_000

#: The shortest float64 run numpy's add-reduce sums pairwise (eight
#: partial sums combined in a tree); shorter runs it sums left to right.
#: So ``mean`` over fewer byte positions than this equals a left-to-right
#: running sum of per-position term planes divided by the width, and
#: only then: the kernels use the plane sum below this width and gather
#: every term and call ``mean`` from it on.  A numpy fact, not a knob
#: (``tests/core/test_kernels.py`` fails by name if a release changes it).
NUMPY_PAIRWISE_SUM_MIN = 8

_BYTE_TERM_LUT: np.ndarray | None = None

#: Odd 64-bit multiplier folding a window's 8-byte words into one sort key.
_WORD_FOLD = np.uint64(0x9E3779B97F4A7C15)


def _chunk_rows_for(cells_per_row: int, cells_budget: int) -> int:
    return max(1, cells_budget // max(1, cells_per_row))


def byte_term_lut() -> np.ndarray:
    """The 256×256 float64 table of Canberra byte terms ``|i−j|/(i+j)``.

    Built lazily with :func:`canberra_terms` itself, so each entry is the
    exact IEEE-754 value the broadcast formula would produce — gathering
    from the table is bit-identical to computing the term, just cheaper
    (one indexed load instead of abs/add/divide/select per cell).
    """
    global _BYTE_TERM_LUT
    if _BYTE_TERM_LUT is None:
        values = np.arange(256, dtype=np.float64)
        _BYTE_TERM_LUT = canberra_terms(values[:, np.newaxis], values[np.newaxis, :])
    return _BYTE_TERM_LUT


def _terms_mean_float(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Broadcast ``canberra_terms(left, right).mean(axis=-1)`` for floats."""
    denominator = np.abs(left) + np.abs(right)
    numerator = np.abs(left - right)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(denominator > 0, numerator / denominator, 0.0)
    return terms.mean(axis=-1)


def _lut_means(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mean byte term of every row of *left* against every row of *right*.

    Both are ``(count, m)`` uint8 with ``m >= 1``; returns the
    ``(len(left), len(right))`` float64 array of
    ``byte_term_lut()[left[i], right[j]].mean()``.  Below
    :data:`NUMPY_PAIRWISE_SUM_MIN` positions that is a running sum of one
    LUT plane per position, added left to right and divided by *m*: the
    same additions in the same order as ``mean``, without the
    ``(rows, cols, m)`` gather.  A plane takes *right*'s LUT columns and
    then *left*'s rows of them when *left* has at least the LUT's 256
    rows, and the other way round otherwise: the same entries, with
    fewer of them picked one by one.
    """
    lut = byte_term_lut()
    m = left.shape[1]
    if m >= NUMPY_PAIRWISE_SUM_MIN:
        return lut[left[:, np.newaxis, :], right[np.newaxis, :, :]].mean(axis=2)
    if left.shape[0] >= lut.shape[0]:
        planes = (
            lut.take(right[:, p], axis=1).take(left[:, p], axis=0) for p in range(m)
        )
    else:
        planes = (
            lut.take(left[:, p], axis=0).take(right[:, p], axis=1) for p in range(m)
        )
    means = next(planes)
    for plane in planes:
        means += plane
    means /= m
    return means


@dataclass(frozen=True)
class WindowTable:
    """The distinct width-``m`` windows of a group of longer segments.

    The segments are the rows of a sequence of ``(count, n)`` blocks,
    block after block; *shapes* records each block's ``(count, n)``.
    *windows* holds every distinct window once, ``(unique, m)`` uint8, in
    no particular order.  *index* lists, segment by segment and offset by
    offset, the row of *windows* that each window of each segment equals,
    so a block's ``count * (n - m + 1)`` entries follow its
    predecessors'.  Built by :func:`window_table`.
    """

    windows: np.ndarray
    index: np.ndarray
    shapes: tuple[tuple[int, int], ...]


def window_table(long_blocks, m: int) -> WindowTable:
    """The :class:`WindowTable` of width *m* over the rows of *long_blocks*.

    *long_blocks* is a sequence of ``(count, n)`` uint8 blocks with every
    ``n > m``.  Windows are deduplicated exactly: each is keyed by its
    8-byte words folded into one uint64, the keys are sorted, and a new
    distinct window starts wherever a window's bytes differ from its
    sorted predecessor's.  A key collision can therefore only leave a
    window stored twice, never merge two different ones.
    """
    blocks = [np.asarray(block) for block in long_blocks]
    if m < 1:
        raise ValueError(f"window width must be >= 1, got {m}")
    for block in blocks:
        if block.dtype != np.uint8:
            raise ValueError(f"window tables take uint8 blocks, got {block.dtype}")
        if block.shape[1] <= m:
            raise ValueError(f"long block must be longer: {block.shape[1]} <= {m}")
    # Every window in one gather from the segments' concatenated bytes,
    # where window w of segment s starts at byte w + s * (m - 1).
    data = np.concatenate([block.reshape(-1) for block in blocks])
    offsets = np.repeat(
        [block.shape[1] - m + 1 for block in blocks],
        [block.shape[0] for block in blocks],
    )
    windows = np.lib.stride_tricks.as_strided(
        data, (max(data.size - m + 1, 0), m), (1, 1), writeable=False
    )
    flat = windows[
        np.arange(offsets.sum()) + np.repeat(np.arange(offsets.size) * (m - 1), offsets)
    ]
    words = -(-m // 8)
    padded = np.zeros((flat.shape[0], 8 * words), dtype=np.uint8)
    padded[:, 8 * words - m :] = flat
    keys = padded.view(">u8").astype(np.uint64)
    key = keys[:, 0]
    for word in range(1, words):
        key = key * _WORD_FOLD + keys[:, word]
    order = np.argsort(key)
    ordered = flat[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    shapes = tuple((block.shape[0], block.shape[1]) for block in blocks)
    return WindowTable(ordered[first], index, shapes)


def cross_length_rows(
    short_block: np.ndarray,
    table: WindowTable,
    row_start: int,
    row_stop: int,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
    *,
    cells_budget: int = CHUNK_CELL_BUDGET,
) -> np.ndarray:
    """Rows ``[row_start, row_stop)`` of short segments against a window table.

    *short_block* is ``(a, m)`` uint8 and *table* is the
    :func:`window_table` of width ``m`` over the longer segments.  Returns
    the ``(row_stop - row_start, segments)`` matrix of length-tolerant
    Canberra dissimilarities.  The mean term of each distinct window
    against each short row sums the window's ``m`` LUT terms in the
    order the per-pair definition does (:func:`_lut_means`), and each
    long segment's sliding minimum gathers those means at its own
    window indices, so the values are bit-identical to
    :func:`cross_length_block_reference` however rows are tiled or
    windows shared.  *cells_budget* bounds the per-chunk temporaries
    (means and the min-gather) as in :func:`equal_length_cross_rows`.
    """
    short_block = np.asarray(short_block)
    if short_block.dtype != np.uint8:
        raise ValueError(
            f"cross-length rows take uint8 blocks, got {short_block.dtype}"
        )
    a, m = short_block.shape
    if table.windows.shape[1] != m:
        raise ValueError(
            f"window table of width {table.windows.shape[1]} for short length {m}"
        )
    if not 0 <= row_start <= row_stop <= a:
        raise ValueError(
            f"tile rows [{row_start}, {row_stop}) outside block of {a} rows"
        )
    segments = sum(count for count, _ in table.shapes)
    out = np.empty((row_stop - row_start, segments), dtype=np.float64)
    lengths = np.concatenate(
        [np.full(count, n, dtype=np.int64) for count, n in table.shapes]
    )[:, np.newaxis]
    unique = table.windows.shape[0]
    chunk_rows = _chunk_rows_for(max(unique * m, table.index.size), cells_budget)
    for start in range(row_start, row_stop, chunk_rows):
        stop = min(start + chunk_rows, row_stop)
        # (unique, rows): one row of means per distinct window, so each
        # long segment's minimum runs over contiguous gathered rows.
        means = _lut_means(table.windows, short_block[start:stop])
        # Each long segment's minimum goes straight into its column of
        # the output rows; the formula then runs in place on them.
        d_min = out[start - row_start : stop - row_start].T
        segment = position = 0
        for count, n in table.shapes:
            offsets = n - m + 1
            block_index = table.index[position : position + count * offsets]
            np.take(means, block_index, axis=0).reshape(
                count, offsets, stop - start
            ).min(axis=1, out=d_min[segment : segment + count])
            segment += count
            position += count * offsets
        # (m * d_min + (n - m) * (pf + (1 - pf) * d_min)) / n, with each
        # + and * in the other operand order, which is exact.
        penalty = d_min * (1.0 - penalty_factor)
        penalty += penalty_factor
        penalty *= lengths - m
        d_min *= m
        d_min += penalty
        d_min /= lengths
    return out


def equal_length_cross_rows(
    block_a: np.ndarray,
    block_b: np.ndarray,
    row_start: int,
    row_stop: int,
    *,
    cells_budget: int = CHUNK_CELL_BUDGET,
) -> np.ndarray:
    """Rows ``[row_start, row_stop)`` of an equal-length rectangular bin.

    Returns the ``(row_stop - row_start, count_b)`` float64 block of
    normalized Canberra distances between rows of *block_a* and all rows
    of *block_b* (both ``(count, length)`` with the same length).  The
    one equal-length kernel: the matrix builder passes a group against
    itself (full rows of the symmetric bin, diagonal included, or for
    bins of ``NUMPY_PAIRWISE_SUM_MIN`` bytes and more the columns from
    the tile's first row on) and new rows against an old group of the
    same length.  Cell ``(i, j)`` and
    cell ``(j, i)`` sum the same terms (``byte_term_lut`` is exactly
    symmetric), and every cell is the per-pair definition's sum in its
    order however rows are tiled or chunked, so batch, tiled and
    appended builds are bit-identical.  *cells_budget* caps the
    per-chunk temporary (default: the whole :data:`CHUNK_CELL_BUDGET`);
    the threaded scheduler divides it across workers so aggregate peak
    memory is worker-count independent.
    """
    block_a = np.asarray(block_a)
    block_b = np.asarray(block_b)
    binned = block_a.dtype == np.uint8 and block_b.dtype == np.uint8
    if not binned:
        block_a = np.asarray(block_a, dtype=np.float64)
        block_b = np.asarray(block_b, dtype=np.float64)
    count_a, length_a = block_a.shape
    count_b, length_b = block_b.shape
    if length_a != length_b:
        raise ValueError(
            f"equal-length cross kernel needs equal lengths: "
            f"{length_a} != {length_b}"
        )
    if not 0 <= row_start <= row_stop <= count_a:
        raise ValueError(
            f"tile rows [{row_start}, {row_stop}) outside block of {count_a} rows"
        )
    out = np.zeros((row_stop - row_start, count_b), dtype=np.float64)
    if length_a == 0:
        return out
    chunk_rows = _chunk_rows_for(count_b * length_a, cells_budget)
    for start in range(row_start, row_stop, chunk_rows):
        stop = min(start + chunk_rows, row_stop)
        if binned:
            means = _lut_means(block_a[start:stop], block_b)
        else:
            means = _terms_mean_float(
                block_a[start:stop, np.newaxis, :], block_b[np.newaxis, :, :]
            )
        out[start - row_start : stop - row_start] = means
    return out


def equal_length_cross_block_reference(
    block_a: np.ndarray, block_b: np.ndarray
) -> np.ndarray:
    """Per-pair oracle for :func:`equal_length_cross_rows`.

    One :func:`canberra_distance` call per (a, b) pair; pins the
    vectorized rectangular kernel exactly as the other references pin
    their batch counterparts.
    """
    block_a = np.asarray(block_a, dtype=np.float64)
    block_b = np.asarray(block_b, dtype=np.float64)
    if block_a.shape[1] != block_b.shape[1]:
        raise ValueError(
            f"equal-length cross kernel needs equal lengths: "
            f"{block_a.shape[1]} != {block_b.shape[1]}"
        )
    result = np.empty((block_a.shape[0], block_b.shape[0]), dtype=np.float64)
    for i, left in enumerate(block_a):
        for j, right in enumerate(block_b):
            result[i, j] = canberra_distance(left, right)
    return result


def pairwise_equal_length_reference(block: np.ndarray) -> np.ndarray:
    """Per-pair oracle for one equal-length bin against itself.

    One :func:`canberra_distance` call per unordered pair — the direct
    transcription of the paper's definition, quadratic in Python-call
    overhead.  :func:`equal_length_cross_rows` over ``(block, block)`` is
    pinned against this implementation.
    """
    block = np.asarray(block, dtype=np.float64)
    count = block.shape[0]
    result = np.zeros((count, count), dtype=np.float64)
    for i in range(count):
        for j in range(i + 1, count):
            result[i, j] = result[j, i] = canberra_distance(block[i], block[j])
    return result


def cross_length_block_reference(
    short_block: np.ndarray,
    long_block: np.ndarray,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
) -> np.ndarray:
    """Per-pair oracle for :func:`cross_length_rows`.

    One :func:`canberra_dissimilarity` call per (short, long) pair,
    including its Python-level sliding-window minimum.
    """
    short_block = np.asarray(short_block, dtype=np.float64)
    long_block = np.asarray(long_block, dtype=np.float64)
    if short_block.shape[1] >= long_block.shape[1]:
        raise ValueError(
            f"short block must be shorter: "
            f"{short_block.shape[1]} >= {long_block.shape[1]}"
        )
    result = np.empty((short_block.shape[0], long_block.shape[0]), dtype=np.float64)
    for i, short in enumerate(short_block):
        for j, long in enumerate(long_block):
            result[i, j] = canberra_dissimilarity(
                short, long, penalty_factor=penalty_factor
            )
    return result


def dissimilarity_matrix_reference(
    datas: list, penalty_factor: float = DEFAULT_PENALTY_FACTOR
) -> np.ndarray:
    """Per-pair oracle for the whole dissimilarity matrix.

    One serial :func:`canberra_dissimilarity` call per unordered pair of
    *datas* (byte strings or vectors), in the given order — the paper's
    definition with no binning, tiling or lookup table.  Parity tests
    and the kernel-grid microbenchmark pin
    :meth:`repro.core.matrix.DissimilarityMatrix.build` against it.
    """
    count = len(datas)
    result = np.zeros((count, count), dtype=np.float64)
    for i in range(count):
        for j in range(i + 1, count):
            result[i, j] = result[j, i] = canberra_dissimilarity(
                datas[i], datas[j], penalty_factor=penalty_factor
            )
    return result
