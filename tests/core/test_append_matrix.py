"""Append-only matrix growth: bit-identity with batch builds.

:class:`~repro.core.matrix.AppendableMatrix` promises that growing a
matrix segment-batch by segment-batch yields *exactly* the bytes a
batch :meth:`~repro.core.matrix.DissimilarityMatrix.build` over the
union produces — every cell depends only on its two segments' bytes and
goes through the same binned kernel.  These tests pin that promise
(hypothesis over arbitrary splits, including an empty start, plus the
threaded tile queue), the rectangular equal-length kernel the appends
run on, and the rank-k k-NN column merge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canberra import (
    equal_length_cross_block_reference,
    equal_length_cross_rows,
)
from repro.core.matrix import (
    AppendableMatrix,
    DissimilarityMatrix,
    MatrixBuildOptions,
)
from repro.core.segments import Segment, UniqueSegment


def unique(data: bytes) -> UniqueSegment:
    return UniqueSegment(
        data=data, occurrences=(Segment(message_index=0, offset=0, data=data),)
    )


def distinct_segments(datas: list[bytes]) -> list[UniqueSegment]:
    seen = set()
    out = []
    for data in datas:
        if data and data not in seen:
            seen.add(data)
            out.append(unique(data))
    return out


SERIAL = MatrixBuildOptions(workers=1, use_cache=False)
THREADED = MatrixBuildOptions(workers=4, parallel_threshold=0, use_cache=False)

datas_strategy = st.lists(
    st.binary(min_size=2, max_size=12), min_size=2, max_size=24, unique=True
)


class TestEqualLengthCrossKernel:
    @given(
        st.integers(2, 10),
        st.integers(1, 6),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, length, a, b, rng):
        block_a = np.frombuffer(
            bytes(rng.randrange(256) for _ in range(a * length)), dtype=np.uint8
        ).reshape(a, length)
        block_b = np.frombuffer(
            bytes(rng.randrange(256) for _ in range(b * length)), dtype=np.uint8
        ).reshape(b, length)
        fast = equal_length_cross_rows(block_a, block_b, 0, a)
        reference = equal_length_cross_block_reference(block_a, block_b)
        assert fast.tobytes() == reference.tobytes()

    def test_chunked_rows_match_whole_block(self):
        rng = np.random.default_rng(5)
        block_a = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
        block_b = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        whole = equal_length_cross_rows(block_a, block_b, 0, 7)
        tiled = np.vstack(
            [
                equal_length_cross_rows(block_a, block_b, r, min(r + 2, 7))
                for r in range(0, 7, 2)
            ]
        )
        assert whole.tobytes() == tiled.tobytes()
        budgeted = equal_length_cross_rows(block_a, block_b, 0, 7, cells_budget=3)
        assert whole.tobytes() == budgeted.tobytes()


class TestAppendBitIdentity:
    @given(datas_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_split_matches_batch(self, datas, data):
        segments = distinct_segments(datas)
        # split == 0 grows an empty matrix by one append: the batch
        # build's own construction.
        split = data.draw(st.integers(0, len(segments)))
        batch = DissimilarityMatrix.build(segments, options=SERIAL)
        appendable = AppendableMatrix(segments[:split], options=SERIAL)
        if split < len(segments):
            appendable.append(segments[split:])
        grown = appendable.matrix
        assert [s.data for s in grown.segments] == [s.data for s in segments]
        assert (
            np.asarray(grown.values).tobytes() == np.asarray(batch.values).tobytes()
        )

    @given(datas_strategy, st.data())
    @settings(max_examples=20, deadline=None)
    def test_multiple_appends_match_batch(self, datas, data):
        segments = distinct_segments(datas)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(1, len(segments)), max_size=3, unique=True)
            )
        )
        batch = DissimilarityMatrix.build(segments, options=SERIAL)
        edges = [0, *cuts, len(segments)]
        appendable = None
        for start, stop in zip(edges, edges[1:]):
            chunk = segments[start:stop]
            if not chunk:
                continue
            if appendable is None:
                appendable = AppendableMatrix(chunk, options=SERIAL)
            else:
                appendable.append(chunk)
        assert (
            np.asarray(appendable.matrix.values).tobytes()
            == np.asarray(batch.values).tobytes()
        )

    def test_threaded_append_matches_batch(self):
        rng = np.random.default_rng(11)
        segments = distinct_segments(
            [bytes(rng.integers(0, 256, size=rng.integers(2, 14))) for _ in range(120)]
        )
        batch = DissimilarityMatrix.build(segments, options=THREADED)
        appendable = AppendableMatrix(segments[:70], options=THREADED)
        appendable.append(segments[70:])
        assert (
            np.asarray(appendable.matrix.values).tobytes()
            == np.asarray(batch.values).tobytes()
        )

    def test_old_views_stay_valid_across_growth(self):
        segments = distinct_segments([bytes([i, i + 1, i + 2]) for i in range(30)])
        appendable = AppendableMatrix(segments[:10], options=SERIAL)
        old = appendable.matrix
        old_bytes = np.asarray(old.values).tobytes()
        appendable.append(segments[10:])  # forces a capacity regrow
        assert len(old) == 10
        assert np.asarray(old.values).tobytes() == old_bytes


class TestKnnMerge:
    def test_merged_columns_match_fresh_partition(self):
        rng = np.random.default_rng(3)
        segments = distinct_segments(
            [bytes(rng.integers(0, 256, size=rng.integers(2, 10))) for _ in range(80)]
        )
        appendable = AppendableMatrix(segments[:60], options=SERIAL)
        k = 6
        appendable.matrix.knn_distances_all(k)
        appendable.append(segments[60:])
        merged = appendable.matrix._knn_columns
        assert merged is not None and merged.shape[1] == k
        fresh = DissimilarityMatrix.build(
            appendable.segments, options=SERIAL
        ).knn_distances_all(k)
        np.testing.assert_array_equal(merged, fresh)

    def test_merged_columns_with_tied_distances(self):
        # Segments over a four-byte alphabet share a handful of distinct
        # Canberra distances, so most rows tie across the k-th position.
        alphabet = (0, 1, 2, 255)
        datas = [bytes([a, b]) for a in alphabet for b in alphabet]
        datas += [bytes([a, b, c]) for a in alphabet for b in alphabet for c in (0, 2)]
        segments = distinct_segments(datas)
        appendable = AppendableMatrix(segments[:30], options=SERIAL)
        k = 7
        appendable.matrix.knn_distances_all(k)
        appendable.append(segments[30:])
        merged = appendable.matrix._knn_columns
        for column in range(k):
            assert (
                merged[:, column].tobytes()
                == appendable.matrix.knn_distances(column + 1).tobytes()
            )

    @pytest.mark.parametrize("old_count", [30, 45])
    def test_merged_columns_across_many_blocks(self, monkeypatch, old_count):
        # 7-row blocks cut both the old-row merge and the new-row
        # selection into several blocks; the new rows' blocks start
        # mid-matrix, at a row that is not a multiple of 7.
        monkeypatch.setattr("repro.core.matrix.KNN_BLOCK_ROWS", 7)
        rng = np.random.default_rng(11)
        alphabet = (0, 1, 2, 255)
        datas = [bytes(rng.choice(alphabet, size=rng.integers(2, 5))) for _ in range(120)]
        segments = distinct_segments(datas)
        assert len(segments) - old_count > 14
        appendable = AppendableMatrix(segments[:old_count], options=SERIAL)
        k = 6
        appendable.matrix.knn_distances_all(k)
        appendable.append(segments[old_count:])
        merged = appendable.matrix._knn_columns
        for column in range(k):
            assert (
                merged[:, column].tobytes()
                == appendable.matrix.knn_distances(column + 1).tobytes()
            )

    def test_append_without_cache_leaves_no_columns(self):
        segments = distinct_segments([bytes([i, i]) for i in range(2, 12)])
        appendable = AppendableMatrix(segments[:6], options=SERIAL)
        appendable.append(segments[6:])
        assert appendable.matrix._knn_columns is None


class TestLifecycle:
    def test_replace_segments_requires_same_values(self):
        segments = distinct_segments([b"ab", b"cd", b"ef"])
        appendable = AppendableMatrix(segments, options=SERIAL)
        richer = [
            UniqueSegment(
                data=s.data,
                occurrences=s.occurrences
                + (Segment(message_index=9, offset=0, data=s.data),),
            )
            for s in segments
        ]
        appendable.replace_segments(richer)
        assert all(len(s.occurrences) == 2 for s in appendable.segments)
        with pytest.raises(ValueError):
            appendable.replace_segments(richer[:2])
        with pytest.raises(ValueError):
            appendable.replace_segments([*richer[:2], unique(b"zz")])

    def test_persist_seeds_batch_cache(self, tmp_path):
        options = MatrixBuildOptions(
            workers=1, use_cache=True, cache_dir=tmp_path
        )
        segments = distinct_segments([bytes([i, 255 - i]) for i in range(20)])
        appendable = AppendableMatrix(segments[:12], options=options)
        appendable.append(segments[12:])
        appendable.persist()
        rebuilt = DissimilarityMatrix.build(segments, options=options)
        assert rebuilt.stats.cache_hit
        assert (
            np.asarray(rebuilt.values).tobytes()
            == np.asarray(appendable.matrix.values).tobytes()
        )
