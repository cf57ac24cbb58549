"""Parity contracts of the binned kernel against the per-pair oracle.

The vectorized length-binned kernel (byte-term LUT gather, triangle
mirroring, window-table sliding minimum) is a pure optimization: on
every input it must return the exact bytes of the per-pair reference
oracle — one ``canberra_distance`` / ``canberra_dissimilarity`` call per
pair, via the ``*_reference`` functions of :mod:`repro.core.canberra`.
Each kernel cell sums the same terms in the same order as the oracle
and a minimum is exact, so there is no tolerance.  Violations here mean
the kernel rewrite changed the numerics and every downstream stage
(autoconf, DBSCAN, refinement) silently drifts.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matrix as matrix_mod
from repro.core.canberra import (
    byte_term_lut,
    canberra_dissimilarity,
    cross_length_block_reference,
    cross_length_rows,
    dissimilarity_matrix_reference,
    pairwise_equal_length_reference,
    pairwise_equal_length_rows,
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


def whole_bin(block):
    """An equal-length bin over its full row range."""
    return pairwise_equal_length_rows(block, 0, block.shape[0])


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
        # Force many tiny row chunks so the triangle band spans chunks.
        block = uint8_block(np.random.default_rng(3), 19, 6)
        fast = pairwise_equal_length_rows(block, 0, len(block), cells_budget=64)
        assert_same_bytes(fast, pairwise_equal_length_reference(block))
        assert np.array_equal(fast, fast.T)


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
