"""Parity contracts of the binned kernel against the per-pair oracle.

The vectorized length-binned kernel (byte-term LUT gather, triangle
mirroring, all-offsets sliding minimum) is a pure optimization: on every
input it must agree with the per-pair reference oracle — one
``canberra_distance`` / ``canberra_dissimilarity`` call per pair, via
the ``*_reference`` functions of :mod:`repro.core.canberra` — within
1e-12 absolute (in practice bit-identically).  Violations here mean the
kernel rewrite changed the numerics and every downstream stage
(autoconf, DBSCAN, refinement) silently drifts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canberra import (
    byte_term_lut,
    canberra_dissimilarity,
    cross_length_block_reference,
    cross_length_block_rows,
    dissimilarity_matrix_reference,
    pairwise_equal_length_reference,
    pairwise_equal_length_rows,
)
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import Segment, unique_segments

PARITY_ATOL = 1e-12


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


def uint8_block(rng, count, length):
    return rng.integers(0, 256, size=(count, length), dtype=np.uint8)


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
        assert np.abs(fast - oracle).max() <= PARITY_ATOL
        assert np.array_equal(fast, fast.T)

    def test_uint8_and_float_paths_agree(self):
        block = uint8_block(np.random.default_rng(2), 23, 5)
        assert np.abs(
            whole_bin(block) - whole_bin(block.astype(np.float64))
        ).max() <= PARITY_ATOL

    def test_degenerate_shapes(self):
        assert whole_bin(np.zeros((0, 4), dtype=np.uint8)).shape == (0, 0)
        assert whole_bin(np.zeros((1, 4), dtype=np.uint8))[0, 0] == 0.0
        assert np.array_equal(
            whole_bin(np.zeros((3, 0), dtype=np.uint8)), np.zeros((3, 3))
        )

    def test_chunked_mirroring_is_consistent(self, monkeypatch):
        # Force many tiny row chunks so the triangle band spans chunks.
        monkeypatch.setattr("repro.core.canberra._CHUNK_CELL_BUDGET", 64)
        block = uint8_block(np.random.default_rng(3), 19, 6)
        fast = whole_bin(block)
        assert np.abs(fast - pairwise_equal_length_reference(block)).max() <= PARITY_ATOL
        assert np.array_equal(fast, fast.T)


class TestCrossLengthKernelParity:
    def test_uint8_fast_path_matches_reference(self):
        rng = np.random.default_rng(4)
        short = uint8_block(rng, 11, 3)
        long = uint8_block(rng, 9, 10)
        fast = cross_length_block_rows(short, long, 0, len(short))
        oracle = cross_length_block_reference(short, long)
        assert np.abs(fast - oracle).max() <= PARITY_ATOL

    def test_nondefault_penalty(self):
        rng = np.random.default_rng(5)
        short = uint8_block(rng, 7, 2)
        long = uint8_block(rng, 8, 5)
        fast = cross_length_block_rows(short, long, 0, len(short), penalty_factor=0.25)
        oracle = cross_length_block_reference(short, long, penalty_factor=0.25)
        assert np.abs(fast - oracle).max() <= PARITY_ATOL

    def test_rejects_equal_or_longer_short_block(self):
        block = uint8_block(np.random.default_rng(6), 4, 4)
        with pytest.raises(ValueError):
            cross_length_block_rows(block, block, 0, len(block))
        with pytest.raises(ValueError):
            cross_length_block_reference(block, block)

    def test_chunked_path(self, monkeypatch):
        monkeypatch.setattr("repro.core.canberra._CHUNK_CELL_BUDGET", 64)
        rng = np.random.default_rng(7)
        short = uint8_block(rng, 13, 4)
        long = uint8_block(rng, 6, 9)
        fast = cross_length_block_rows(short, long, 0, len(short))
        assert np.abs(fast - cross_length_block_reference(short, long)).max() <= PARITY_ATOL


# Ragged segment sets: lengths 1–64, deliberately including repeated
# values (collapsed by unique_segments) and repeated lengths.
ragged_segment_sets = st.lists(
    st.binary(min_size=1, max_size=64), min_size=2, max_size=14, unique=True
)


class TestKernelPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_binned_equals_pairwise_on_ragged_sets(self, datas):
        assert np.abs(build(datas).values - reference(datas)).max() <= PARITY_ATOL

    @settings(max_examples=30, deadline=None)
    @given(
        datas=st.lists(st.binary(min_size=6, max_size=6), min_size=2, max_size=12, unique=True)
    )
    def test_all_equal_lengths(self, datas):
        assert np.abs(build(datas).values - reference(datas)).max() <= PARITY_ATOL

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_all_distinct_lengths(self, seed):
        rng = np.random.default_rng(seed)
        datas = [
            bytes(rng.integers(0, 256, length).tolist())
            for length in rng.permutation(np.arange(1, 11))
        ]
        assert np.abs(build(datas).values - reference(datas)).max() <= PARITY_ATOL

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
        assert np.abs(binned.values - oracle).max() <= PARITY_ATOL

    @settings(max_examples=40, deadline=None)
    @given(datas=ragged_segment_sets)
    def test_matrix_matches_per_pair_definition(self, datas):
        """The built matrix equals the documented per-pair function."""
        segments = as_unique_segments(datas)
        matrix = build([s.data for s in segments])
        for i, a in enumerate(segments):
            for j, b in enumerate(segments):
                assert matrix.values[i, j] == pytest.approx(
                    canberra_dissimilarity(a.data, b.data), abs=PARITY_ATOL
                )


def make_ragged_datas(count, seed=17, max_length=12):
    rng = np.random.default_rng(seed)
    datas = set()
    while len(datas) < count:
        length = int(rng.integers(1, max_length + 1))
        datas.add(bytes(rng.integers(0, 256, length).tolist()))
    return sorted(datas)


class TestBuildPathParity:
    """The full ``DissimilarityMatrix.build`` == the per-pair oracle."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_build_parity_across_worker_counts(self, workers):
        datas = make_ragged_datas(90)
        matrix = build(datas, workers=workers, parallel_threshold=0)
        assert np.abs(matrix.values - reference(datas)).max() <= PARITY_ATOL

    def test_parallel_binned_matches_serial_pairwise(self):
        datas = make_ragged_datas(120, seed=23)
        parallel_binned = build(datas, workers=2, parallel_threshold=0)
        assert np.abs(reference(datas) - parallel_binned.values).max() <= PARITY_ATOL

    def test_stats_record_vectorized_pairs(self):
        datas = make_ragged_datas(40, seed=29)
        count = len(datas)
        assert build(datas).stats.pairs_vectorized == count * (count - 1) // 2
