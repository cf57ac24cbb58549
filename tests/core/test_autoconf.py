import math
import tracemalloc

import numpy as np
import scipy.interpolate  # noqa: F401  (loaded before any allocation is traced)

from repro.core.autoconf import configure, min_samples_for
from repro.core.matrix import DissimilarityMatrix
from repro.core.segments import Segment, unique_segments


def matrix_from(datas):
    segments = [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(datas)]
    return DissimilarityMatrix.build(unique_segments(segments))


def two_regime_data(rng, tight=120, loose=30):
    """Segments forming a dense family plus scattered outliers."""
    datas = []
    base = bytes([40, 80, 120, 160])
    for _ in range(tight):
        datas.append(bytes((b + rng.integers(0, 6)) % 256 for b in base))
    for _ in range(loose):
        datas.append(bytes(rng.integers(0, 256, size=4).tolist()))
    return list(dict.fromkeys(datas))


class TestMinSamples:
    def test_paper_rule(self):
        assert min_samples_for(1000) == round(math.log(1000))

    def test_floor_of_two(self):
        assert min_samples_for(3) == 2
        assert min_samples_for(2) == 2

    def test_floor_is_unconditional_at_every_degenerate_size(self):
        # The paper's rule is max(2, round(ln n)); round(ln 1) == 0 used
        # to leak through as min_samples == 1, under which DBSCAN's
        # density test is vacuous (every point is its own core).
        for n in (1, 2, 3):
            assert min_samples_for(n) == 2

    def test_monotone_nondecreasing_over_small_counts(self):
        values = [min_samples_for(n) for n in range(1, 100)]
        assert values == sorted(values)
        assert min(values) == 2


class TestConfigure:
    def test_epsilon_separates_regimes(self):
        rng = np.random.default_rng(5)
        matrix = matrix_from(two_regime_data(rng))
        auto = configure(matrix)
        # Epsilon must fall between the dense family's internal distances
        # and the scattered outliers' typical distances.
        assert 0.0 < auto.epsilon < 0.5

    def test_k_within_paper_range(self):
        rng = np.random.default_rng(6)
        matrix = matrix_from(two_regime_data(rng))
        auto = configure(matrix)
        assert 2 <= auto.k <= max(2, round(math.log(len(matrix))))

    def test_curves_exposed_for_figure2(self):
        rng = np.random.default_rng(7)
        matrix = matrix_from(two_regime_data(rng))
        auto = configure(matrix)
        assert auto.curve_x.shape == auto.curve_y.shape
        assert np.all(np.diff(auto.curve_y) >= 0)

    def test_tiny_input_degrades_gracefully(self):
        matrix = matrix_from([b"\x01\x02", b"\x03\x04"])
        auto = configure(matrix)
        assert auto.fallback_used
        assert auto.epsilon >= 0.0

    def test_trim_at_reduces_epsilon(self):
        rng = np.random.default_rng(8)
        matrix = matrix_from(two_regime_data(rng))
        auto = configure(matrix)
        trimmed = configure(matrix, trim_at=auto.epsilon)
        assert trimmed.epsilon < auto.epsilon

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        datas = two_regime_data(rng)
        a = configure(matrix_from(datas))
        b = configure(matrix_from(datas))
        assert a.epsilon == b.epsilon
        assert a.k == b.k

    def test_knee_in_knees_list(self):
        rng = np.random.default_rng(10)
        auto = configure(matrix_from(two_regime_data(rng)))
        if auto.knee is not None:
            assert auto.knees
            assert auto.knees[-1] == auto.knee


class TestMemoryBound:
    def test_knn_selection_stays_under_the_bound(self):
        # Algorithm 1's k-NN selection copies each row block it
        # partitions; under a 1 MiB bound its blocks must shrink to fit.
        size = 2000
        rng = np.random.default_rng(3)
        values = rng.random((size, size))
        values = (values + values.T) / 2
        np.fill_diagonal(values, 0.0)
        matrix = DissimilarityMatrix(segments=[None] * size, values=values)
        tracemalloc.start()
        try:
            auto = configure(matrix, memory_bound_bytes=1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"peak {peak / 2**20:.2f} MiB"
        unbounded = DissimilarityMatrix(segments=[None] * size, values=values)
        other = configure(unbounded, workers=2)
        assert (other.epsilon, other.k, other.min_samples) == (
            auto.epsilon,
            auto.k,
            auto.min_samples,
        )
