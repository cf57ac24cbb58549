"""Parity contracts of the binned kernel against the per-pair oracle.

The vectorized length-binned kernel (byte-term LUT planes below
``NUMPY_PAIRWISE_SUM_MIN`` bytes and a gather from there, one
rectangular equal-length kernel, window-table sliding minimum) is a
pure optimization: on every input it must return the exact bytes of
the per-pair reference oracle — one ``canberra_distance`` /
``canberra_dissimilarity`` call per pair, via the ``*_reference``
functions of :mod:`repro.core.canberra`.
Each kernel cell sums the same terms in the same order as the oracle
and a minimum is exact, so there is no tolerance.  Violations here mean
the kernel rewrite changed the numerics and every downstream stage
(autoconf, DBSCAN, refinement) silently drifts.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import matrix as matrix_mod
from repro.core.canberra import (
    NUMPY_PAIRWISE_SUM_MIN,
    byte_term_lut,
    canberra_dissimilarity,
    cross_length_block_reference,
    cross_length_rows,
    dissimilarity_matrix_reference,
    equal_length_cross_block_reference,
    equal_length_cross_rows,
    pairwise_equal_length_reference,
    window_table,
)
from repro.core.matrix import AppendableMatrix, DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import Segment, UniqueSegment, unique_segments


def assert_same_bytes(actual, expected):
    actual = np.asarray(actual)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def as_unique_segments(datas):
    return unique_segments(
        [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)],
        min_length=1,
    )


def build(datas, workers=1, **kwargs):
    options = MatrixBuildOptions(workers=workers, use_cache=False, **kwargs)
    return DissimilarityMatrix.build(as_unique_segments(datas), options=options)


def reference(datas):
    """The per-pair oracle over the segments :func:`build` sees, in order."""
    return dissimilarity_matrix_reference([s.data for s in as_unique_segments(datas)])


def whole_bin(block, **kwargs):
    """An equal-length bin against itself, over its full row range."""
    return equal_length_cross_rows(block, block, 0, block.shape[0], **kwargs)


def uint8_block(rng, count, length, values=256):
    return rng.integers(0, values, size=(count, length), dtype=np.uint8)


def cross_rows(short, longs, **kwargs):
    """Every row of *short* against the long blocks, through a window table."""
    table = window_table(longs, short.shape[1])
    return cross_length_rows(short, table, 0, len(short), **kwargs)


def cross_reference(short, longs, **kwargs):
    return np.concatenate(
        [cross_length_block_reference(short, long, **kwargs) for long in longs], axis=1
    )


class TestByteTermLut:
    def test_matches_the_formula_exactly(self):
        lut = byte_term_lut()
        assert lut.shape == (256, 256)
        assert lut[0, 0] == 0.0  # 0/0 := 0
        for i, j in [(0, 1), (1, 3), (128, 192), (255, 255), (7, 0)]:
            expected = abs(i - j) / (i + j) if i + j else 0.0
            assert lut[i, j] == expected
        assert np.array_equal(lut, lut.T)


class TestEqualLengthKernelParity:
    def test_uint8_fast_path_matches_reference(self):
        block = uint8_block(np.random.default_rng(1), 37, 8)
        fast = whole_bin(block)
        oracle = pairwise_equal_length_reference(block)
        assert_same_bytes(fast, oracle)
        assert np.array_equal(fast, fast.T)

    def test_uint8_and_float_paths_agree(self):
        block = uint8_block(np.random.default_rng(2), 23, 5)
        assert_same_bytes(whole_bin(block), whole_bin(block.astype(np.float64)))

    def test_degenerate_shapes(self):
        assert whole_bin(np.zeros((0, 4), dtype=np.uint8)).shape == (0, 0)
        assert whole_bin(np.zeros((1, 4), dtype=np.uint8))[0, 0] == 0.0
        assert np.array_equal(
            whole_bin(np.zeros((3, 0), dtype=np.uint8)), np.zeros((3, 3))
        )

    def test_chunked_mirroring_is_consistent(self):
        # Force many tiny row chunks: each chunk computes full rows, and
        # cell (i, j) still equals cell (j, i) computed in another chunk.
        block = uint8_block(np.random.default_rng(3), 19, 6)
        fast = whole_bin(block, cells_budget=64)
        assert_same_bytes(fast, pairwise_equal_length_reference(block))
        assert_same_bytes(fast, fast.T.copy())


def rounding_sensitive_rows(width, count=400, seed=0):
    """Float64 rows whose sum depends on the order of the additions.

    Row 0 is ``1.0`` followed by ``2**-53`` terms: added left to right
    each one rounds away, added pairwise they survive.  The other rows
    mix magnitudes from 1e-8 to 1e8.
    """
    rng = np.random.default_rng(seed)
    rows = rng.random((count, width)) * 10.0 ** rng.integers(-8, 9, (count, width))
    rows[0] = [1.0] + [2.0**-53] * (width - 1)
    return rows


def left_to_right_sums(rows):
    total = rows[:, 0].copy()
    for position in range(1, rows.shape[1]):
        total += rows[:, position]
    return total


class TestNumpySummationOrder:
    """The numpy fact the plane-sum kernels rest on.

    ``mean`` over fewer than ``NUMPY_PAIRWISE_SUM_MIN`` float64 values
    adds them left to right, so a running sum of LUT planes gives its
    bytes.  If a numpy release sums short rows in another order, the
    first test fails by name before any golden fingerprint moves.
    """

    @pytest.mark.parametrize("width", range(2, NUMPY_PAIRWISE_SUM_MIN))
    def test_add_reduce_sums_fewer_than_eight_float64_left_to_right(self, width):
        rows = rounding_sensitive_rows(width)
        expected = left_to_right_sums(rows)
        assert_same_bytes(np.add.reduce(rows, axis=1), expected)
        assert_same_bytes(rows.reshape(20, 20, width).sum(axis=2).ravel(), expected)
        assert_same_bytes(
            rows.reshape(20, 20, width).mean(axis=2).ravel(), expected / width
        )
        assert np.add.reduce(rows[0]) == expected[0] == 1.0

    def test_add_reduce_sums_eight_float64_pairwise(self):
        # The limit is tight: from eight values on the sum is pairwise,
        # which is why wider rows keep the gather and ``mean``.
        rows = rounding_sensitive_rows(NUMPY_PAIRWISE_SUM_MIN)
        assert np.add.reduce(rows[0]) != left_to_right_sums(rows)[0]


#: Widths the plane sums cover (1-7) and the first two that gather (8-9).
PLANE_AND_GATHER_WIDTHS = range(1, NUMPY_PAIRWISE_SUM_MIN + 2)


class TestPlaneSumKernels:
    """Both kernels equal their per-pair oracles at every narrow width.

    The budgets force several row chunks.  A plane is taken in one of two
    orders, by whether a chunk's left side (the rows of an equal-length
    chunk, the distinct windows of a window table) has at least the
    LUT's 256 rows; the explicit examples take each order at every width.
    """

    @pytest.mark.parametrize("m", PLANE_AND_GATHER_WIDTHS)
    @settings(max_examples=8, deadline=None)
    @given(
        rows=st.sampled_from([4, 9, 300, 600]),
        cols=st.integers(1, 5),
        chunks=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=600, cols=4, chunks=2, seed=1)  # chunks of 300 rows
    @example(rows=300, cols=4, chunks=2, seed=2)  # chunks of 150 rows
    def test_equal_length_rows_match_the_oracle(self, m, rows, cols, chunks, seed):
        rng = np.random.default_rng(seed)
        block_a = uint8_block(rng, rows, m)
        block_b = uint8_block(rng, cols, m)
        budget = -(-rows // chunks) * cols * m
        fast = equal_length_cross_rows(block_a, block_b, 0, rows, cells_budget=budget)
        assert_same_bytes(fast, equal_length_cross_block_reference(block_a, block_b))
        # One bin against itself, full rows in chunks of four.
        square = block_a[:12]
        assert_same_bytes(
            whole_bin(square, cells_budget=4 * len(square) * m),
            pairwise_equal_length_reference(square),
        )

    @pytest.mark.parametrize("m", PLANE_AND_GATHER_WIDTHS)
    @settings(max_examples=8, deadline=None)
    @given(
        shorts=st.integers(4, 12),
        extra=st.lists(st.integers(1, 120), min_size=1, max_size=3),
        chunks=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shorts=6, extra=[120, 119, 118], chunks=3, seed=3)  # >= 256 windows
    @example(shorts=6, extra=[20], chunks=2, seed=4)  # < 256 windows
    def test_cross_length_rows_match_the_oracle(self, m, shorts, extra, chunks, seed):
        rng = np.random.default_rng(seed)
        short = uint8_block(rng, shorts, m)
        longs = [uint8_block(rng, int(rng.integers(1, 4)), m + e) for e in extra]
        table = window_table(longs, m)
        per_row = max(table.windows.shape[0] * m, table.index.size)
        budget = -(-shorts // chunks) * per_row
        fast = cross_length_rows(short, table, 0, shorts, cells_budget=budget)
        assert_same_bytes(fast, cross_reference(short, longs))


class TestCrossLengthKernelParity:
    def test_uint8_fast_path_matches_reference(self):
        rng = np.random.default_rng(4)
        short = uint8_block(rng, 11, 3)
        long = uint8_block(rng, 9, 10)
        assert_same_bytes(cross_rows(short, [long]), cross_reference(short, [long]))

    def test_nondefault_penalty(self):
        rng = np.random.default_rng(5)
        short = uint8_block(rng, 7, 2)
        long = uint8_block(rng, 8, 5)
        assert_same_bytes(
            cross_rows(short, [long], penalty_factor=0.25),
            cross_reference(short, [long], penalty_factor=0.25),
        )

    def test_rejects_equal_or_longer_short_block(self):
        block = uint8_block(np.random.default_rng(6), 4, 4)
        with pytest.raises(ValueError):
            window_table([block], 4)
        with pytest.raises(ValueError):
            cross_length_block_reference(block, block)

    def test_chunked_path(self):
        rng = np.random.default_rng(7)
        short = uint8_block(rng, 13, 4)
        longs = [uint8_block(rng, 6, 9), uint8_block(rng, 3, 5)]
        assert_same_bytes(
            cross_rows(short, longs, cells_budget=64), cross_reference(short, longs)
        )

    def test_rows_tile_to_the_whole_block(self):
        rng = np.random.default_rng(8)
        short = uint8_block(rng, 9, 3)
        table = window_table([uint8_block(rng, 5, 7)], 3)
        whole = cross_length_rows(short, table, 0, 9)
        tiled = np.concatenate(
            [cross_length_rows(short, table, r, min(r + 4, 9)) for r in range(0, 9, 4)]
        )
        assert_same_bytes(tiled, whole)

    def test_width_one_windows(self):
        # m = 1: every window is one byte, so a table holds at most 256.
        rng = np.random.default_rng(9)
        short = uint8_block(rng, 40, 1)
        longs = [uint8_block(rng, 30, 2), uint8_block(rng, 20, 17)]
        assert window_table(longs, 1).windows.shape[0] <= 256
        assert_same_bytes(cross_rows(short, longs), cross_reference(short, longs))

    def test_windows_shared_across_long_lengths(self):
        # Low-entropy bytes: the same windows recur within and across
        # segments of different lengths, so the table stores far fewer
        # windows than the segments have, and each is reused.
        rng = np.random.default_rng(10)
        short = uint8_block(rng, 12, 3, values=3)
        longs = [uint8_block(rng, 9, n, values=3) for n in (4, 6, 11)]
        table = window_table(longs, 3)
        assert table.windows.shape[0] < table.index.size
        assert table.windows.shape[0] <= 27
        assert_same_bytes(cross_rows(short, longs), cross_reference(short, longs))

    def test_single_long_segment(self):
        rng = np.random.default_rng(11)
        short = uint8_block(rng, 6, 5)
        long = uint8_block(rng, 1, 12)
        assert_same_bytes(cross_rows(short, [long]), cross_reference(short, [long]))


class TestWindowTable:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 19),
        extra=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        values=st.sampled_from([2, 4, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_index_reproduces_every_window(self, m, extra, values, seed):
        rng = np.random.default_rng(seed)
        longs = [uint8_block(rng, int(rng.integers(1, 5)), m + e, values) for e in extra]
        table = window_table(longs, m)
        every = np.concatenate(
            [
                np.lib.stride_tricks.sliding_window_view(long, m, axis=1).reshape(-1, m)
                for long in longs
            ]
        )
        assert np.array_equal(table.windows[table.index], every)
        assert len(np.unique(table.windows, axis=0)) == table.windows.shape[0]
        assert table.shapes == tuple(long.shape for long in longs)

    def test_key_collisions_never_merge_windows(self, monkeypatch):
        # A zero fold keys every 16-byte window by its last 8 bytes
        # alone, so windows that differ only in their first 8 collide.
        monkeypatch.setattr("repro.core.canberra._WORD_FOLD", np.uint64(0))
        rng = np.random.default_rng(12)
        head = uint8_block(rng, 6, 8, values=2)
        tail = np.tile(uint8_block(rng, 1, 9), (6, 1))
        long = np.concatenate([head, tail], axis=1)
        table = window_table([long], 16)
        every = np.lib.stride_tricks.sliding_window_view(long, 16, axis=1).reshape(-1, 16)
        assert np.array_equal(table.windows[table.index], every)
        short = uint8_block(rng, 4, 16)
        assert_same_bytes(
            cross_length_rows(short, table, 0, 4), cross_reference(short, [long])
        )

    def test_rejects_non_byte_blocks(self):
        with pytest.raises(ValueError):
            window_table([np.zeros((2, 5))], 2)
        table = window_table([np.zeros((1, 4), dtype=np.uint8)], 2)
        with pytest.raises(ValueError):
            cross_length_rows(np.zeros((2, 2)), table, 0, 2)


# Ragged segment sets: lengths 1–64, deliberately including repeated
# values (collapsed by unique_segments) and repeated lengths.
ragged_segment_sets = st.lists(
    st.binary(min_size=1, max_size=64), min_size=2, max_size=14, unique=True
)


class TestKernelPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_binned_equals_pairwise_on_ragged_sets(self, datas):
        assert_same_bytes(build(datas).values, reference(datas))

    @settings(max_examples=30, deadline=None)
    @given(
        datas=st.lists(st.binary(min_size=6, max_size=6), min_size=2, max_size=12, unique=True)
    )
    def test_all_equal_lengths(self, datas):
        assert_same_bytes(build(datas).values, reference(datas))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_all_distinct_lengths(self, seed):
        rng = np.random.default_rng(seed)
        datas = [
            bytes(rng.integers(0, 256, length).tolist())
            for length in rng.permutation(np.arange(1, 11))
        ]
        assert_same_bytes(build(datas).values, reference(datas))

    def test_duplicate_values_collapse_identically(self):
        # Duplicate occurrences collapse to one unique segment; the
        # kernel and the oracle must see the identical deduplicated set.
        datas = [b"\x01\x02\x03", b"\x01\x02\x03", b"\xff\x00", b"\xff\x00", b"\x04"]
        segments = [
            Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)
        ]
        unique = unique_segments(segments, min_length=1)
        assert len(unique) == 3
        binned = DissimilarityMatrix.build(
            unique, options=MatrixBuildOptions(workers=1, use_cache=False)
        )
        oracle = dissimilarity_matrix_reference([u.data for u in unique])
        assert_same_bytes(binned.values, oracle)

    @settings(max_examples=40, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_matrix_matches_per_pair_definition(self, datas):
        """The built matrix equals the documented per-pair function."""
        segments = as_unique_segments(datas)
        matrix = build([s.data for s in segments])
        for i, a in enumerate(segments):
            for j, b in enumerate(segments):
                assert matrix.values[i, j] == canberra_dissimilarity(a.data, b.data)


def make_ragged_datas(count, seed=17, max_length=12):
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    return sorted(datas)


def make_repetitive_datas(count, seed, max_length):
    """Ragged segments, about half over the bytes {0, 1}, so windows recur."""
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        values = int(rng.choice([2, 256]))
        datas.add(bytes(rng.integers(0, values, length).tolist()))
    return sorted(datas)


class TestBuildPathParity:
    """The full ``DissimilarityMatrix.build`` == the per-pair oracle."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_build_parity_across_worker_counts(self, workers):
        datas = make_ragged_datas(90)
        matrix = build(datas, workers=workers, parallel_threshold=0)
        assert_same_bytes(matrix.values, reference(datas))

    def test_parallel_binned_matches_serial_pairwise(self):
        datas = make_ragged_datas(120, seed=23)
        parallel_binned = build(datas, workers=2, parallel_threshold=0)
        assert_same_bytes(parallel_binned.values, reference(datas))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_long_segments_split_across_table_groups(self, monkeypatch, workers):
        # A tiny budget caps every window table at a few window bytes,
        # so one short length's longer segments (even one bin of them)
        # are cut into many consecutive groups, one cross task each.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 64)
        datas = make_repetitive_datas(60, seed=31, max_length=20)
        matrix = build(datas, workers=workers, parallel_threshold=0)
        lengths = {len(d) for d in datas}
        assert matrix.stats.task_count > 3 * len(lengths)
        assert_same_bytes(matrix.values, reference(datas))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_append_splits(self, monkeypatch, seed):
        # Old short rows meet new longer segments and new short rows
        # meet old and new ones, in groups under a small budget.
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", 256)
        rng = random.Random(seed)
        datas = make_repetitive_datas(50, seed=seed, max_length=16)
        rng.shuffle(datas)
        cuts = sorted(rng.sample(range(1, len(datas)), 3))
        options = MatrixBuildOptions(
            workers=rng.choice([0, 2]), parallel_threshold=0, use_cache=False
        )
        segments = [UniqueSegment(data=d) for d in datas]
        grown = AppendableMatrix(segments[: cuts[0]], options=options)
        for start, stop in zip(cuts, cuts[1:] + [len(datas)]):
            grown.append(segments[start:stop])
        assert_same_bytes(grown.matrix.values, dissimilarity_matrix_reference(datas))

    def test_stats_record_vectorized_pairs(self):
        datas = make_ragged_datas(40, seed=29)
        count = len(datas)
        assert build(datas).stats.pairs_vectorized == count * (count - 1) // 2


class TestWindowTableMemory:
    def test_tables_stay_within_a_small_multiple_of_the_budget(self, monkeypatch):
        # One random segment of every length 2..120 plus 200 three-byte
        # ones: the three-byte rows meet ~7000 windows of every longer
        # length and every width up to 119 has a table.  Capped groups
        # built inside their tiles peak at about 2x the budget above the
        # matrix; tables built up front without the cap peak near 9x.
        budget = 200_000
        monkeypatch.setattr(matrix_mod, "CHUNK_CELL_BUDGET", budget)
        rng = np.random.default_rng(0)
        datas = {bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in range(2, 121)}
        while len(datas) < 119 + 200:
            datas.add(bytes(rng.integers(0, 256, 3, dtype=np.uint8)))
        segments = [UniqueSegment(data=d) for d in sorted(datas)]
        options = MatrixBuildOptions(workers=0, use_cache=False)
        tracemalloc.start()
        try:
            matrix = DissimilarityMatrix.build(segments, options=options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - matrix.values.nbytes <= 4 * budget * 8
