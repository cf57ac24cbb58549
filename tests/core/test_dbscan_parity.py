"""DBSCAN labelling, blockwise-refinement and k-NN selection parity.

The memory-bounded fast paths (the component labelling over the CSR
epsilon-adjacency, blockwise refinement scans, one-selection k-NN
extraction) are only admissible because they are *bit-identical* to
their references — the breadth-first ``dbscan_reference``, argmin
tie-breaking, full-sort order statistics.  These tests pin that
equivalence on random symmetric matrices (hypothesis), on hand-made
edge cases, on real golden-trace dissimilarity matrices, and at both
extremes of the memory bound (one row per block vs everything in one
block).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import refinement
from repro.core.dbscan import NOISE, _neighborhoods, dbscan, dbscan_reference
from repro.core.matrix import (
    DissimilarityMatrix,
    MatrixBuildOptions,
    knn_distances_reference,
)
from repro.core.refinement import link_segments_reference, merge_clusters
from repro.core.segments import unique_segments

#: One row per block vs one block for everything.
BOUNDS = (1, None)


def symmetric_matrix(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.random((size, size))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def golden_matrix(protocol: str = "ntp") -> DissimilarityMatrix:
    from repro.protocols import get_model
    from repro.segmenters.groundtruth import GroundTruthSegmenter

    model = get_model(protocol)
    trace = model.generate(80, seed=1202).preprocess()
    segments = GroundTruthSegmenter(model).segment(trace)
    uniq = unique_segments(segments)
    return DissimilarityMatrix.build(
        uniq, options=MatrixBuildOptions(workers=1)
    )


def assert_matches_reference(m, epsilon, min_samples, weights=None):
    """Both bounds label *m* exactly as the BFS reference."""
    reference = dbscan_reference(m, epsilon, min_samples, weights=weights)
    for bound in BOUNDS:
        result = dbscan(
            m, epsilon, min_samples, weights=weights, memory_bound_bytes=bound
        )
        assert np.array_equal(result.labels, reference.labels), bound
    return reference.labels


class TestCsrDenseParity:
    """The adjacency in CSR blocks of one row (bound 1) and in one dense
    block of every row (bound None) labels exactly as the reference."""

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(2, 40),
        epsilon=st.floats(0.05, 0.95),
        min_samples=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, seed, size, epsilon, min_samples):
        assert_matches_reference(symmetric_matrix(seed, size), epsilon, min_samples)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices_weighted(self, seed, size):
        m = symmetric_matrix(seed, size)
        rng = np.random.default_rng(seed + 1)
        weights = rng.integers(1, 6, size).astype(np.float64)
        assert_matches_reference(m, 0.4, 4, weights)

    @pytest.mark.parametrize("protocol", ["ntp", "dns"])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_golden_trace_matrices(self, protocol, bound):
        matrix = golden_matrix(protocol)
        values = matrix.values
        # A mid-scale epsilon exercises non-trivial neighborhoods.
        epsilon = float(np.median(matrix.condensed()))
        reference = dbscan_reference(values, epsilon, 3)
        result = dbscan(values, epsilon, 3, memory_bound_bytes=bound)
        assert np.array_equal(result.labels, reference.labels)
        assert reference.cluster_count > 0

    def test_empty_matrix_both_backends(self):
        assert list(assert_matches_reference(np.zeros((0, 0)), 0.5, 2)) == []


class TestLabellingMatchesReference:
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(0, 40),
        epsilon=st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7]),
        min_samples=st.integers(1, 7),
        weighted=st.booleans(),
        ties=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_matrices(self, seed, size, epsilon, min_samples, weighted, ties):
        m = symmetric_matrix(seed, size)
        if ties:
            # A one-decimal grid puts many distances exactly at epsilon.
            m = np.round(m, 1)
        weights = None
        if weighted:
            rng = np.random.default_rng(seed + 1)
            weights = rng.integers(1, 5, size).astype(np.float64)
        assert_matches_reference(m, epsilon, min_samples, weights)

    def test_single_point(self):
        one = np.zeros((1, 1))
        assert list(assert_matches_reference(one, 0.5, 2)) == [NOISE]
        assert list(assert_matches_reference(one, 0.5, 1)) == [0]
        assert list(assert_matches_reference(one, 0.5, 2, np.array([3.0]))) == [0]

    def test_no_core_point(self):
        m = symmetric_matrix(7, 12)
        labels = assert_matches_reference(m, 0.01, 3)
        assert (labels == NOISE).all()

    def test_every_point_core(self):
        m = np.round(symmetric_matrix(8, 15) * 0.1, 3)
        labels = assert_matches_reference(m, 0.5, 15)
        assert (labels == 0).all()

    def test_distances_exactly_at_epsilon(self):
        # A chain 0-1-2-3 whose links are exactly epsilon long: "within"
        # is <=, so all four are core and form one cluster.
        m = np.full((5, 5), 0.9)
        np.fill_diagonal(m, 0.0)
        for i in range(3):
            m[i, i + 1] = m[i + 1, i] = 0.25
        labels = assert_matches_reference(m, 0.25, 2)
        assert list(labels) == [0, 0, 0, 0, NOISE]

    def test_border_point_between_two_clusters_takes_lower_id(self):
        # Clusters A = {0, 1, 2, 3} and C = {5, 6, 7, 8}; point 4 is
        # within epsilon of cores 3 and 5 but, with three neighbors, not
        # core itself.  It joins whichever cluster got the lower id,
        # whether A or C comes first in index order.
        for order in (list(range(9)), [5, 6, 7, 8, 4, 0, 1, 2, 3]):
            m = np.full((9, 9), 0.9)
            for group in ((0, 1, 2, 3), (5, 6, 7, 8)):
                m[np.ix_(group, group)] = 0.1
            np.fill_diagonal(m, 0.0)
            for core in (3, 5):
                m[4, core] = m[core, 4] = 0.2
            m = m[np.ix_(order, order)]
            labels = assert_matches_reference(m, 0.2, 4)
            by_point = dict(zip(order, labels))
            assert by_point[4] == 0
            assert {by_point[0], by_point[5]} == {0, 1}
            assert by_point[0] == by_point[3] and by_point[5] == by_point[8]


class TestBlockwiseRefinementParity:
    @given(seed=st.integers(0, 10_000), size=st.integers(4, 40))
    @settings(max_examples=40, deadline=None)
    def test_link_segments_any_bound(self, seed, size):
        m = symmetric_matrix(seed, size)
        split = size // 2
        a, b = np.arange(split), np.arange(split, size)
        reference = link_segments_reference(m, a, b)
        for bound in BOUNDS:
            assert link_segments_reference(m, a, b, memory_bound_bytes=bound) == reference

    def test_link_segments_tie_breaking(self):
        # Several equal minima: the blockwise scan must keep np.argmin's
        # first-occurrence (row-major) winner at every bound.
        m = np.full((6, 6), 0.5)
        np.fill_diagonal(m, 0.0)
        m[0, 3] = m[3, 0] = 0.2
        m[1, 4] = m[4, 1] = 0.2
        m[2, 5] = m[5, 2] = 0.2
        a, b = np.array([0, 1, 2]), np.array([3, 4, 5])
        for bound in BOUNDS:
            assert link_segments_reference(m, a, b, memory_bound_bytes=bound) == (0, 3, 0.2)

    @given(seed=st.integers(0, 10_000), size=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_cluster_stats_blockwise_matches_exact(self, seed, size):
        m = symmetric_matrix(seed, size)
        indices = np.arange(size)
        [(exact, _, _)], _ = refinement._scan_clusters(m, [indices], None, 1)
        [(blockwise, _, _)], _ = refinement._scan_clusters(m, [indices], 1, 1)
        assert blockwise.mean_dissimilarity == pytest.approx(
            exact.mean_dissimilarity, rel=1e-12
        )
        assert blockwise.max_extent == exact.max_extent
        assert blockwise.minmed == exact.minmed


def tied_matrix(size: int, dtype) -> np.ndarray:
    """A quarter-step grid: long runs of equal distances in every row."""
    m = np.round(symmetric_matrix(11, size) * 4) / 4
    return np.minimum(m, m.T).astype(dtype)


class TestInlineAdjacencyBlocks:
    def test_fewest_blocks_the_bound_admits(self, monkeypatch):
        # Inline, short blocks only add calls: under the default bound the
        # whole matrix is one block, and a one-byte bound one row each.
        module = sys.modules["repro.core.dbscan"]
        run = module.run_blocks
        seen = []

        def spy(scan, blocks, workers):
            seen.append((len(blocks), workers))
            return run(scan, blocks, workers)

        monkeypatch.setattr(module, "run_blocks", spy)
        m = tied_matrix(300, np.float64)
        for bound in BOUNDS:
            _neighborhoods(m, 0.25, None, bound, 2)
        assert seen == [(300, 1), (1, 1)]


@pytest.mark.usefixtures("thread_pool_always")
class TestThreadedScansParity:
    """The row scans' threaded runs return the inline runs' bytes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_knn_columns(self, dtype, bound):
        m = tied_matrix(300, dtype)
        columns = {}
        for workers in (1, 2):
            matrix = DissimilarityMatrix(segments=[None] * len(m), values=m)
            columns[workers] = matrix.knn_distances_all(
                9, memory_bound_bytes=bound, workers=workers
            )
        assert columns[2].dtype == dtype
        assert columns[1].tobytes() == columns[2].tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_epsilon_adjacency(self, dtype, bound, weighted):
        m = tied_matrix(300, dtype)
        weights = np.arange(1.0, 301.0) % 5 + 1 if weighted else None
        inline = _neighborhoods(m, 0.25, weights, bound, 1)
        threaded = _neighborhoods(m, 0.25, weights, bound, 2)
        assert (inline[3], threaded[3]) == (1, 2)
        for got, want in zip(threaded[:3], inline[:3]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        labels = dbscan(m, 0.25, 4, weights=weights, memory_bound_bytes=bound, workers=2)
        assert np.array_equal(labels.labels, dbscan_reference(m, 0.25, 4, weights).labels)


    def test_many_threads_with_a_short_switch_interval(self):
        # More threads than cores, one-row blocks and a thread switch
        # every microsecond: a block writing outside its own rows, or
        # parts joined out of order, would change the bytes.
        m = tied_matrix(240, np.float64)
        clusters = [np.arange(start, 240, 7) for start in range(7)]

        def scans(workers):
            matrix = DissimilarityMatrix(segments=[None] * len(m), values=m)
            columns = matrix.knn_distances_all(9, memory_bound_bytes=1, workers=workers)
            adjacency = _neighborhoods(m, 0.25, None, 1, workers)[:3]
            merged = merge_clusters(m, clusters, memory_bound_bytes=1, workers=workers)
            return [columns.tobytes(), *(a.tobytes() for a in adjacency), *map(bytes, merged)]

        inline = scans(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert scans(8) == inline
        finally:
            sys.setswitchinterval(interval)


class TestKnnDistancesAllParity:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_matches_per_k_reference(self, bound):
        matrix = golden_matrix("ntp")
        k_max = min(6, len(matrix) - 1)
        matrix._knn_columns = None  # defeat the cache for the bounded run
        columns = matrix.knn_distances_all(k_max, memory_bound_bytes=bound)
        assert columns.shape == (len(matrix), k_max)
        for k in range(1, k_max + 1):
            assert np.array_equal(columns[:, k - 1], knn_distances_reference(matrix.values, k))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("k_max", [9, 150])
    def test_tied_distances(self, dtype, bound, k_max):
        # A quarter-step grid puts long runs of equal distances across
        # every k-th position; 300 rows span two selection blocks.  At
        # k_max=150 the partition leaves most rows' front unsorted.
        rng = np.random.default_rng(11)
        m = np.round(symmetric_matrix(11, 300) * 4) / 4
        m[rng.random(m.shape) < 0.02] = 0.0
        m = np.minimum(m, m.T).astype(dtype)
        matrix = DissimilarityMatrix(segments=[None] * len(m), values=m)
        columns = matrix.knn_distances_all(k_max, memory_bound_bytes=bound)
        assert columns.dtype == dtype
        for k in range(1, k_max + 1):
            assert columns[:, k - 1].tobytes() == knn_distances_reference(matrix.values, k).tobytes()

    def test_memmap_storage(self):
        from repro.protocols import get_model
        from repro.segmenters.groundtruth import GroundTruthSegmenter

        model = get_model("ntp")
        trace = model.generate(80, seed=1202).preprocess()
        uniq = unique_segments(GroundTruthSegmenter(model).segment(trace))
        matrix = DissimilarityMatrix.build(
            uniq, options=MatrixBuildOptions(storage="memmap")
        )
        assert isinstance(matrix.values, np.memmap)
        k_max = min(8, len(matrix) - 1)
        columns = matrix.knn_distances_all(k_max)
        for k in range(1, k_max + 1):
            assert columns[:, k - 1].tobytes() == knn_distances_reference(matrix.values, k).tobytes()

    def test_cache_reused_and_extended(self):
        matrix = golden_matrix("ntp")
        wide = matrix.knn_distances_all(5)
        narrow = matrix.knn_distances_all(3)
        assert np.array_equal(narrow, wide[:, :3])
        assert np.shares_memory(matrix.knn_distances_all(5), wide)  # no recompute
        assert np.shares_memory(narrow, wide)

    def test_k_max_bounds_validated(self):
        matrix = golden_matrix("ntp")
        with pytest.raises(ValueError):
            matrix.knn_distances_all(0)
        with pytest.raises(ValueError):
            matrix.knn_distances_all(len(matrix))
