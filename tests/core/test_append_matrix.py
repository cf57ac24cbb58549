"""Append-only matrix growth: bit-identity with batch builds.

:class:`~repro.core.matrix.AppendableMatrix` promises that growing a
matrix segment-batch by segment-batch yields *exactly* the bytes a
batch :meth:`~repro.core.matrix.DissimilarityMatrix.build` over the
union produces — every cell depends only on its two segments' bytes and
goes through the same binned kernel.  These tests pin that promise
(hypothesis over arbitrary splits, including an empty start, plus the
threaded tile queue), the window tables an append keeps and extends
(widths that first appear late, long segments after short ones,
eviction), the rectangular equal-length kernel the appends run on, and
the rank-k k-NN column merge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matrix as matrix_mod
from repro.core.autoconf import configure
from repro.core.canberra import (
    equal_length_cross_block_reference,
    equal_length_cross_rows,
)
from repro.core.matrix import (
    AppendableMatrix,
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
)
from repro.core.segments import Segment, UniqueSegment
from repro.obs.tracer import Tracer, use_tracer


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
THREADED = MatrixBuildOptions(workers=4, use_cache=False)

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

    def test_threaded_append_matches_batch(self, thread_pool_always):
        rng = np.random.default_rng(11)
        segments = distinct_segments(
            [bytes(rng.integers(0, 256, size=rng.integers(2, 14))) for _ in range(120)]
        )
        tracer = Tracer()
        with use_tracer(tracer):
            batch = DissimilarityMatrix.build(segments, options=THREADED)
            appendable = AppendableMatrix(segments[:70], options=THREADED)
            appendable.append(segments[70:])
        # Every build and the append ran on the pool.
        spans = tracer.find("matrix.build") + tracer.find("matrix.append")
        assert len(spans) == 3
        assert all(span.attributes["workers"] == 4 for span in spans)
        assert all(span.attributes["tiles"] > 1 for span in spans)
        assert (
            np.asarray(appendable.matrix.values).tobytes()
            == np.asarray(batch.values).tobytes()
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 199), min_size=1, max_size=4, unique=True),
        st.sampled_from([SERIAL, THREADED]),
    )
    @settings(max_examples=12, deadline=None)
    def test_interleaved_appends_match_batch_and_keep_old_views(
        self, seed, cuts, options
    ):
        # A 150-row bin of 9-byte segments (band tiles, and "eqcross"
        # rectangles of more than one tile) among ragged 1-20-byte ones,
        # shuffled: every append brings interleaved lengths, whose new
        # columns the working layout reorders while its tiles run.
        rng = np.random.default_rng(seed)
        datas = {bytes(rng.integers(0, 256, 9, dtype=np.uint8)) for _ in range(150)}
        datas |= {bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in rng.integers(1, 21, 50)}
        datas = sorted(datas)
        rng.shuffle(datas)
        segments = distinct_segments(datas)
        edges = [0, *sorted(cuts), len(segments)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_mod, "THREAD_POOL_MIN_CELLS", 0)
            appendable = AppendableMatrix(segments[: edges[1]], options=options)
            for start, stop in zip(edges[1:], edges[2:]):
                view = appendable.matrix.values
                before = view.tobytes()
                appendable.append(segments[start:stop])
                assert view.tobytes() == before
        batch = DissimilarityMatrix.build(segments, options=SERIAL)
        assert appendable.matrix.values.tobytes() == batch.values.tobytes()

    def test_old_views_stay_valid_across_growth(self):
        segments = distinct_segments([bytes([i, i + 1, i + 2]) for i in range(30)])
        appendable = AppendableMatrix(segments[:10], options=SERIAL)
        old = appendable.matrix
        old_bytes = np.asarray(old.values).tobytes()
        appendable.append(segments[10:])  # forces a capacity regrow
        assert len(old) == 10
        assert np.asarray(old.values).tobytes() == old_bytes


def grow(segments, cuts, options=SERIAL):
    """An AppendableMatrix over *segments*, appended at the sorted *cuts*,
    and the ``matrix.append`` spans' attributes."""
    edges = [0, *sorted(set(cuts)), len(segments)]
    tracer = Tracer()
    with use_tracer(tracer):
        appendable = AppendableMatrix(segments[: edges[1]], options=options)
        for start, stop in zip(edges[1:], edges[2:]):
            if stop > start:
                appendable.append(segments[start:stop])
    return appendable, [span.attributes for span in tracer.find("matrix.append")]


def assert_batch_bytes(appendable, segments):
    batch = DissimilarityMatrix.build(segments, options=SERIAL)
    assert [s.data for s in appendable.segments] == [s.data for s in segments]
    assert (
        np.asarray(appendable.matrix.values).tobytes()
        == np.asarray(batch.values).tobytes()
    )


#: Ragged segments over a small alphabet, so windows repeat across
#: segments, offsets and appends, plus a few long ones.
ragged_strategy = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=9).map(lambda b: bytes(x % 4 for x in b)),
        st.binary(min_size=10, max_size=40),
    ),
    min_size=4,
    max_size=40,
    unique=True,
)


class TestKeptWindowTables:
    @given(
        ragged_strategy,
        st.sampled_from(["arrival", "short_first", "long_first"]),
        st.sampled_from([None, 0.0, 100.0]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_batch(self, datas, order, share, data):
        # "short_first" makes long segments arrive after short ones (the
        # kept tables gain new lengths); "long_first" makes short widths
        # first appear late, against a matrix of longer segments.  A
        # share of 0 keeps no table (every width rebuilt each append);
        # the default bound drops some tables of matrices this small,
        # and a share of 100 none, so every table is extended by every
        # later append.
        segments = distinct_segments(datas)
        if order == "short_first":
            segments.sort(key=lambda s: s.length)
        elif order == "long_first":
            segments.sort(key=lambda s: -s.length)
        cuts = data.draw(
            st.lists(st.integers(1, len(segments) - 1), min_size=1, max_size=6)
        )
        with pytest.MonkeyPatch.context() as patch:
            if share is not None:
                patch.setattr(matrix_mod, "KEPT_TABLE_SHARE", share)
            appendable, appends = grow(segments, cuts)
        assert_batch_bytes(appendable, segments)
        if share == 0.0:
            assert all(a["tables"] == 0 and a["table_bytes"] == 0 for a in appends)
        if share == 100.0:
            counts = [a["tables"] for a in appends]
            assert counts == sorted(counts)

    def test_extensions_add_only_unseen_windows(self, monkeypatch):
        # Every segment draws its bytes from {0, 1}, so the kept table
        # of width m can hold at most 2**m windows, however many
        # segments the appends bring.
        rng = np.random.default_rng(7)
        datas = [
            bytes(rng.integers(0, 2, size=rng.integers(2, 12), dtype=np.uint8))
            for _ in range(400)
        ]
        segments = distinct_segments(datas)
        cuts = range(150, len(segments), 8)
        appendable, appends = grow(segments, cuts)
        assert_batch_bytes(appendable, segments)
        kept = appendable._tables._tables
        assert {m: kept[m].count for m in (4, 5, 6)} == {4: 16, 5: 32, 6: 64}
        assert [a["tables"] for a in appends] == sorted(a["tables"] for a in appends)
        assert 0 < appends[-1]["table_bytes"] <= appendable._backing.nbytes
        # Without kept tables the same appends build every width's full
        # table again each time.
        monkeypatch.setattr(matrix_mod, "KEPT_TABLE_SHARE", 0.0)
        _, rebuilt = grow(segments, cuts)
        kept_built = sum(a["tables_built"] for a in appends)
        assert kept_built < sum(a["tables_built"] for a in rebuilt)

    def test_late_width_and_long_segments_after_short(self):
        short = distinct_segments([bytes([i, i ^ 3]) for i in range(40)])
        middle = distinct_segments([bytes([i, 7, i, 9, i]) for i in range(40)])
        long = distinct_segments([bytes(range(i, i + 20)) for i in range(30)])
        late = distinct_segments([bytes([i, 1, 2]) for i in range(30)])
        segments = short[:20] + middle[:20] + short[20:] + long + middle[20:] + late
        cuts = [20, 40, 60, 90, 110]
        appendable, appends = grow(segments, cuts)
        assert_batch_bytes(appendable, segments)
        # Width 3 first appears in the last append, against kept widths.
        assert appends[-1]["tables"] == 3

    def test_eviction_drops_the_largest_table_first(self, monkeypatch):
        twos = distinct_segments([bytes([i % 7, i % 5]) for i in range(35)])
        fours = distinct_segments([bytes([i, i, i, i]) for i in range(20)])
        longs = distinct_segments([bytes(range(i, i + 30)) for i in range(60)])
        segments = twos[:20] + longs + fours + twos[20:]
        # Widths 4, then 2, get new rows once longer segments exist.
        appendable, _ = grow(segments, [20, 80, 100])
        sizes = {m: t.nbytes for m, t in appendable._tables._tables.items()}
        assert sorted(sizes) == [2, 4] and sizes[2] > sizes[4]
        # A new width-3 table and the extended width-2 table are both
        # larger than the width-4 one, which the bound still admits.
        monkeypatch.setattr(
            matrix_mod, "KEPT_TABLE_SHARE", (sizes[4] + 1) / appendable._backing.nbytes
        )
        extra = distinct_segments([bytes([250, i, 251]) for i in range(5)])
        appendable.append(extra)
        assert list(appendable._tables._tables) == [4]
        assert appendable._tables.nbytes == sizes[4]
        assert_batch_bytes(appendable, segments + extra)
        # The dropped widths are built again when they next get rows.
        more = distinct_segments([bytes([240, i]) for i in range(5)])
        appendable.append(more)
        assert_batch_bytes(appendable, segments + extra + more)

    def test_failed_append_keeps_no_tables(self, monkeypatch):
        segments = distinct_segments([bytes(range(i, i + n)) for n in (2, 5, 9) for i in range(20)])
        appendable = AppendableMatrix(segments[:30], options=SERIAL)
        appendable.append(segments[30:45])
        assert len(appendable._tables)

        def broken(*args):
            raise RuntimeError("injected tile fault")

        with monkeypatch.context() as patch:
            patch.setattr(matrix_mod, "_compute_tile_into", broken)
            with pytest.raises(RuntimeError):
                appendable.append(segments[45:50])
        assert not len(appendable._tables)


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
                == knn_distances_reference(appendable.matrix.values, column + 1).tobytes()
            )

    @pytest.mark.parametrize("old_count", [30, 45])
    def test_merged_columns_across_many_blocks(self, monkeypatch, old_count):
        # 7-row blocks cut both the old-row merge and the new-row
        # selection into several blocks; the new rows' blocks start
        # mid-matrix, at a row that is not a multiple of 7.
        monkeypatch.setattr("repro.core.matrix.SCAN_BLOCK_ROWS", 7)
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
                == knn_distances_reference(appendable.matrix.values, column + 1).tobytes()
            )

    def test_merged_columns_under_a_one_byte_bound(self):
        # One-row blocks in both the old-row merge and the new-row
        # selection.
        rng = np.random.default_rng(12)
        datas = [bytes(rng.integers(0, 256, size=rng.integers(2, 6))) for _ in range(90)]
        segments = distinct_segments(datas)
        appendable = AppendableMatrix(segments[:40], options=SERIAL, memory_bound_bytes=1)
        k = 5
        appendable.matrix.knn_distances_all(k)
        appendable.append(segments[40:])
        merged = appendable.matrix._knn_columns
        for column in range(k):
            assert (
                merged[:, column].tobytes()
                == knn_distances_reference(appendable.matrix.values, column + 1).tobytes()
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

    def test_autoconfig_follows_values_not_views(self):
        segments = distinct_segments([bytes([i, 3 * i % 256, 9]) for i in range(40)])
        appendable = AppendableMatrix(segments[:30], options=SERIAL)
        first = configure(appendable.matrix)
        again = configure(appendable.matrix)
        assert not first.reused and again.reused and again == first
        # A different argument is a different configuration.
        assert not configure(appendable.matrix, sensitivity=2.0).reused
        # Same values under refreshed segments: kept.
        appendable.replace_segments(list(appendable.segments))
        assert configure(appendable.matrix).reused
        # New values: computed again.
        appendable.append(segments[30:])
        assert not configure(appendable.matrix).reused

    def test_persist_seeds_batch_cache(self, tmp_path):
        options = MatrixBuildOptions(
            workers=1, use_cache=True, cache_dir=tmp_path
        )
        segments = distinct_segments([bytes([i, 255 - i]) for i in range(20)])
        appendable = AppendableMatrix(segments[:12], options=options)
        appendable.append(segments[12:])
        appendable.persist()
        tracer = Tracer()
        with use_tracer(tracer):
            rebuilt = DissimilarityMatrix.build(segments, options=options)
        (build,) = tracer.find("matrix.build")
        assert build.attributes["cache_hit"]
        assert (
            np.asarray(rebuilt.values).tobytes()
            == np.asarray(appendable.matrix.values).tobytes()
        )
