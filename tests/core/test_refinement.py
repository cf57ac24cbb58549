import tracemalloc

import numpy as np
import pytest

from repro.core.refinement import (
    cluster_stats,
    link_segments,
    merge_clusters,
    percent_rank,
    refine,
    split_polarized,
)
from repro.core.segments import Segment, UniqueSegment


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
        a, b, d = link_segments(values, np.array([0, 1]), np.array([2, 3]))
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
