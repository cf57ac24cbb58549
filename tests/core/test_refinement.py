import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import refinement
from repro.core.matrix import AppendableMatrix, MatrixBuildOptions
from repro.core.membound import resolve_bound, rows_per_block
from repro.core.refinement import (
    ClusterStats,
    link_segments_reference,
    merge_clusters,
    percent_rank,
    refine,
    should_merge,
    split_polarized,
)
from repro.core.segments import Segment, UniqueSegment
from repro.obs.tracer import Tracer, use_tracer


def uniq(data, count=1):
    occurrences = tuple(
        Segment(message_index=i, offset=0, data=data) for i in range(count)
    )
    return UniqueSegment(data=data, occurrences=occurrences)


def matrix_of(values):
    return np.asarray(values, dtype=float)


def random_symmetric(size, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    values = rng.random((size, size))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return values.astype(dtype)


def one_shot_stats(values, indices):
    """The whole sub-matrix at once: the exact path's element order."""
    sub = values[np.ix_(indices, indices)]
    pairwise = sub[np.triu_indices(len(indices), k=1)]
    nearest = np.where(np.eye(len(indices), dtype=bool), np.inf, sub).min(axis=1)
    return float(pairwise.mean()), float(pairwise.max()), float(np.median(nearest))


def cluster_stats(values, indices, memory_bound_bytes=None):
    """One cluster's stats as the merge scan takes them."""
    [(stats, _, _)], _ = refinement._scan_clusters(
        values, [indices], memory_bound_bytes, 1
    )
    return stats


def parent_cluster_stats(values, indices, memory_bound_bytes=None):
    """Per-cluster stats as one ``np.ix_`` gather per row block computed
    them before the merge scan: the oracle of the scan's stats, at any
    bound (its blockwise path's float64 block sums included)."""
    size = len(indices)
    if size < 2:
        return ClusterStats(indices, 0.0, 0.0, 0.0)
    bound = resolve_bound(memory_bound_bytes)
    itemsize = values.dtype.itemsize
    if size * size * itemsize <= bound:
        sub = values[np.ix_(indices, indices)]
        pairwise = sub[np.triu_indices(size, k=1)]
        nearest = np.where(np.eye(size, dtype=bool), np.inf, sub).min(axis=1)
        return ClusterStats(
            indices, float(pairwise.mean()), float(pairwise.max()), float(np.median(nearest))
        )
    # A block row holds its cells and, below float64, their float64 copy.
    row_bytes = size * (itemsize if itemsize == 8 else itemsize + 8)
    block = rows_per_block(row_bytes, memory_bound_bytes)
    total = max_extent = 0.0
    nearest = np.empty(size, dtype=np.float64)
    for start in range(0, size, block):
        stop = min(size, start + block)
        sub = np.asarray(values[np.ix_(indices[start:stop], indices)], dtype=np.float64)
        total += float(sub.sum())
        max_extent = max(max_extent, float(sub.max()))
        local = np.arange(stop - start)
        sub[local, start + local] = np.inf
        nearest[start:stop] = sub.min(axis=1)
    return ClusterStats(
        indices, total / (size * (size - 1)), max_extent, float(np.median(nearest))
    )


def merge_reference(values, clusters, link_cap, memory_bound_bytes=None):
    """The per-pair merge pass: the oracle stats, and
    :func:`link_segments_reference` for every pair not yet joined."""
    stats = [parent_cluster_stats(values, c, memory_bound_bytes) for c in clusters]
    parent = list(range(len(clusters)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if find(i) == find(j):
                continue
            link = link_segments_reference(
                values, clusters[i], clusters[j], memory_bound_bytes
            )
            if should_merge(values, stats[i], stats[j], link, link_cap=link_cap):
                parent[find(j)] = find(i)
    groups = {}
    for i, cluster in enumerate(clusters):
        groups.setdefault(find(i), []).append(cluster)
    return [np.sort(np.concatenate(group)) for group in groups.values()]


@st.composite
def clustered_matrices(draw):
    """A symmetric matrix of one-decimal values (ties everywhere) and a
    partition of most of its rows into clusters of 1-40 members that lie
    closer to each other than to the rest, so merges happen too."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    count = sum(sizes) + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.full(count, -1)
    order = rng.permutation(count)
    clusters, start = [], 0
    for number, size in enumerate(sizes):
        members = np.sort(order[start : start + size])
        labels[members] = number
        clusters.append(members)
        start += size
    near = rng.random((count, count)) * 0.3
    far = 0.2 + rng.random((count, count)) * 0.8
    same = (labels[:, None] == labels[None, :]) & (labels[:, None] >= 0)
    values = np.round(np.where(same, near, far), 1)
    values = np.minimum(values, values.T)
    np.fill_diagonal(values, 0.0)
    return values, clusters


#: The scan properties share the ``thread_pool_always`` patch across
#: examples; it only lowers a module constant.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]


@pytest.mark.usefixtures("thread_pool_always")
class TestMergeScanMatchesPerPairReference:
    """The merge scan (one gather per cluster row block, inline or on
    threads) against the per-pair gathers it replaced."""

    @settings(max_examples=60, deadline=None, suppress_health_check=SHARED_FIXTURE)
    @given(
        case=clustered_matrices(),
        bound=st.sampled_from([1, None]),
        workers=st.sampled_from([1, 2]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_stats_links_and_merges(self, case, bound, workers, dtype):
        values, clusters = case
        values = values.astype(dtype)
        scanned, _ = refinement._scan_clusters(values, clusters, bound, workers)
        for i, (stats, _, _) in enumerate(scanned):
            expected = parent_cluster_stats(values, clusters[i], bound)
            assert (stats.mean_dissimilarity, stats.max_extent, stats.minmed) == (
                expected.mean_dissimilarity,
                expected.max_extent,
                expected.minmed,
            )
            assert np.array_equal(stats.indices, clusters[i])
            for j in range(i + 1, len(clusters)):
                assert refinement._link(values, clusters, scanned, i, j) == (
                    link_segments_reference(values, clusters[i], clusters[j])
                )
        merged = merge_clusters(
            values, clusters, link_cap=math.inf, memory_bound_bytes=bound, workers=workers
        )
        expected = merge_reference(values, clusters, math.inf, bound)
        assert len(merged) == len(expected)
        for got, want in zip(merged, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bound", [1, None])
    def test_scan_runs_on_the_pool_when_asked(self, bound):
        values = np.round(random_symmetric(90, seed=3), 1)
        clusters = [np.arange(0, 40), np.arange(40, 70), np.arange(70, 90)]
        tracer = Tracer()
        with use_tracer(tracer):
            refine(
                values,
                clusters,
                [uniq(bytes([i, 1])) for i in range(90)],
                memory_bound_bytes=bound,
                workers=2,
            )
        (span,) = tracer.find("refine")
        assert span.attributes["workers"] == 2
        assert span.attributes["pairs"] == 3
        assert span.attributes["clusters_in"] == 3


class TestMergeScanCells:
    @pytest.mark.parametrize("size, threads", [(90, 2), (70, 1)])
    def test_counts_the_matrix_cells_it_reads(self, monkeypatch, size, threads):
        # Each scanned row is read in full (n cells) before its columns
        # are gathered: 90 rows x 120 reach 10,000 cells, though their
        # 90 x 90 gathered cells do not; 70 x 120 stay below.
        monkeypatch.setattr("repro.core.matrix.THREAD_POOL_MIN_CELLS", 10_000)
        monkeypatch.setattr("repro.core.matrix.SCAN_BLOCK_ROWS", 16)
        values = random_symmetric(120, seed=4)
        _, used = refinement._scan_clusters(values, [np.arange(size)], None, 2)
        assert used == threads


class TestRefineSpan:
    def test_counts_merges_and_splits(self):
        values, clusters = _two_close_dense_clusters()
        segments = [uniq(bytes([i, 0])) for i in range(6)]
        tracer = Tracer()
        with use_tracer(tracer):
            refined = refine(values, clusters, segments, link_cap=np.inf, workers=2)
        (span,) = tracer.find("refine")
        assert span.attributes == {
            "clusters_in": 2,
            "clusters_out": len(refined),
            "workers": 1,  # far below the pool's cells
            "pairs": 1,
            "merges": 1,
            "splits": len(refined) - 1,
        }

    def test_no_merge_pass_links_nothing(self):
        values, clusters = _two_close_dense_clusters()
        segments = [uniq(bytes([i, 0])) for i in range(6)]
        tracer = Tracer()
        with use_tracer(tracer):
            refine(values, clusters, segments, merge=False, split=False)
        (span,) = tracer.find("refine")
        assert span.attributes["pairs"] == span.attributes["merges"] == 0
        assert span.attributes["workers"] == 1


class TestSessionViewGathers:
    def test_refine_makes_no_copy_of_the_view(self):
        # An appended matrix is a view into a larger backing, so it is not
        # contiguous: gathering from a flattened copy of it would copy
        # every cell on every gather.
        rng = np.random.default_rng(5)
        datas = list(
            dict.fromkeys(bytes(rng.integers(0, 256, size=rng.integers(2, 7))) for _ in range(1300))
        )
        segments = [uniq(data) for data in datas[:1000]]
        appendable = AppendableMatrix(
            segments[:700], options=MatrixBuildOptions(workers=1)
        )
        values = appendable.append(segments[700:]).values
        assert not values.flags.c_contiguous
        clusters = np.array_split(rng.permutation(len(segments)), 8)
        clusters = [np.sort(c) for c in clusters]
        tracemalloc.start()
        try:
            refine(values, clusters, segments, link_cap=np.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 2, f"peak {peak} of a {values.nbytes}-byte view"


class TestClusterStats:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_exact_path_matches_one_shot_formula(self, dtype):
        # float32 pairs keep their dtype, so the mean is summed in
        # float32 exactly as the one-shot formula sums it.  On this data
        # the mean's last bits change if the pairs' order changes.
        values = random_symmetric(500, seed=6, dtype=dtype)
        indices = np.sort(np.random.default_rng(7).choice(500, 301, replace=False))
        expected = one_shot_stats(values, indices)
        gate = len(indices) ** 2 * values.itemsize
        for bound in (None, gate):  # one row block / many small ones
            stats = cluster_stats(values, indices, memory_bound_bytes=bound)
            got = (stats.mean_dissimilarity, stats.max_extent, stats.minmed)
            assert got == expected

    def test_exact_path_stays_under_the_bound(self):
        # The gate admits a cluster whose size² matrix fits the bound;
        # the path must then hold no more than the bound.
        size = 2400
        values = random_symmetric(size, seed=6)
        indices = np.random.default_rng(7).permutation(size)
        bound = size * size * values.itemsize
        tracemalloc.start()
        try:
            stats = cluster_stats(values, indices, memory_bound_bytes=bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
        assert stats.max_extent == float(values.max())

    def test_blockwise_path_stays_near_the_bound(self):
        # A quarter of the rows, too many for the exact path: each block
        # gathers only its cluster cells, never the block's full rows,
        # and is released before the next one is gathered.  A float32
        # block is summed from its float64 copy, which its rows count.
        size = 2000
        order = np.random.default_rng(9).permutation(size)
        clusters = [np.sort(order[:500]), np.sort(order[500:600]), np.sort(order[600:640])]
        for dtype, bound in ((np.float64, 2**20), (np.float32, 2**19)):
            values = random_symmetric(size, seed=8, dtype=dtype)
            assert len(clusters[0]) ** 2 * values.itemsize > bound
            expected = parent_cluster_stats(values, clusters[0], bound)
            tracemalloc.start()
            try:
                scanned, _ = refinement._scan_clusters(values, clusters, bound, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # The bound plus the fancy index's fixed iteration buffers.
            allowed = bound + 256 * 1024
            assert peak <= allowed, (
                f"{values.dtype}: peak {peak / 2**20:.2f} MiB > {allowed / 2**20:.2f} MiB"
            )
            stats = scanned[0][0]
            assert (stats.mean_dissimilarity, stats.max_extent, stats.minmed) == (
                expected.mean_dissimilarity,
                expected.max_extent,
                expected.minmed,
            )

    def test_singleton(self):
        values = matrix_of([[0.0, 0.5], [0.5, 0.0]])
        stats = cluster_stats(values, np.array([0]))
        assert stats.mean_dissimilarity == 0.0
        assert stats.minmed == 0.0

    def test_pair(self):
        values = matrix_of([[0.0, 0.4], [0.4, 0.0]])
        stats = cluster_stats(values, np.array([0, 1]))
        assert stats.mean_dissimilarity == pytest.approx(0.4)
        assert stats.max_extent == pytest.approx(0.4)
        assert stats.minmed == pytest.approx(0.4)


class TestLinkSegments:
    def test_closest_pair(self):
        values = matrix_of(
            [
                [0.0, 0.1, 0.9, 0.5],
                [0.1, 0.0, 0.8, 0.3],
                [0.9, 0.8, 0.0, 0.1],
                [0.5, 0.3, 0.1, 0.0],
            ]
        )
        a, b, d = link_segments_reference(values, np.array([0, 1]), np.array([2, 3]))
        assert (a, b) == (1, 3)
        assert d == pytest.approx(0.3)


def _two_close_dense_clusters():
    """Six points: two dense groups separated by a small gap."""
    coords = np.array([0.0, 0.01, 0.02, 0.05, 0.06, 0.07])
    values = np.abs(coords[:, None] - coords[None, :])
    return values, [np.array([0, 1, 2]), np.array([3, 4, 5])]


def _two_distant_unequal_clusters():
    coords = np.array([0.0, 0.01, 0.02, 5.0, 5.5, 6.0])
    values = np.abs(coords[:, None] - coords[None, :])
    return values, [np.array([0, 1, 2]), np.array([3, 4, 5])]


class TestMerge:
    def test_merges_adjacent_similar_density(self):
        values, clusters = _two_close_dense_clusters()
        merged = merge_clusters(values, clusters, link_cap=np.inf)
        assert len(merged) == 1

    def test_keeps_distant_clusters(self):
        values, clusters = _two_distant_unequal_clusters()
        merged = merge_clusters(values, clusters, link_cap=np.inf)
        assert len(merged) == 2

    def test_link_cap_blocks_condition1(self):
        values, clusters = _two_close_dense_clusters()
        # Disable Condition 2 so only the capped Condition 1 applies.
        merged = merge_clusters(
            values, clusters, link_cap=0.001, neighbor_density_threshold=0.0
        )
        assert len(merged) == 2

    def test_single_cluster_unchanged(self):
        values = matrix_of([[0.0, 0.1], [0.1, 0.0]])
        clusters = [np.array([0, 1])]
        assert merge_clusters(values, clusters) == clusters

    def test_merge_is_transitive(self):
        # Three dense groups in a row, each close to the next.
        coords = np.array([0.0, 0.01, 0.03, 0.04, 0.06, 0.07])
        values = np.abs(coords[:, None] - coords[None, :])
        clusters = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5])]
        merged = merge_clusters(values, clusters, link_cap=np.inf)
        assert len(merged) == 1
        assert sorted(np.concatenate(merged).tolist()) == [0, 1, 2, 3, 4, 5]


class TestPercentRank:
    def test_all_below(self):
        assert percent_rank(np.array([1, 2, 3]), 10) == 100.0

    def test_all_above(self):
        assert percent_rank(np.array([5, 6]), 1) == 0.0

    def test_ties_weighted_half(self):
        assert percent_rank(np.array([1, 2, 2, 3]), 2) == pytest.approx(50.0)


class TestSplit:
    def test_polarized_cluster_splits(self):
        # 60 rare values (count 1) + 2 extremely frequent ones.
        segments = [uniq(bytes([i, 0]), count=1) for i in range(60)]
        segments += [uniq(bytes([100, i]), count=500) for i in range(2)]
        cluster = np.arange(len(segments))
        result = split_polarized([cluster], segments)
        assert len(result) == 2
        sizes = sorted(len(c) for c in result)
        assert sizes == [2, 60]

    def test_uniform_cluster_not_split(self):
        segments = [uniq(bytes([i, 0]), count=3) for i in range(50)]
        cluster = np.arange(len(segments))
        result = split_polarized([cluster], segments)
        assert len(result) == 1

    def test_tiny_cluster_untouched(self):
        segments = [uniq(b"\x01\x02", count=1)]
        result = split_polarized([np.array([0])], segments)
        assert len(result) == 1


class TestRefine:
    def test_flags_disable_passes(self):
        values, clusters = _two_close_dense_clusters()
        segments = [uniq(bytes([i, 0])) for i in range(6)]
        untouched = refine(values, clusters, segments, merge=False, split=False)
        assert untouched == clusters

    def test_refine_preserves_membership(self):
        values, clusters = _two_close_dense_clusters()
        segments = [uniq(bytes([i, 0])) for i in range(6)]
        refined = refine(values, clusters, segments, link_cap=np.inf)
        members = sorted(np.concatenate(refined).tolist())
        assert members == [0, 1, 2, 3, 4, 5]
