import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import Segment, unique_segments
from repro.msgtypes import similarity
from repro.msgtypes.similarity import (
    alignment_dissimilarities,
    alignment_dissimilarities_reference,
    indexed_sequences,
    message_dissimilarity_matrix,
    segment_sequences,
)
from repro.protocols import get_model
from repro.segmenters import GroundTruthSegmenter


def seg(data, msg, offset=0):
    return Segment(message_index=msg, offset=offset, data=data)


class TestSegmentSequences:
    def test_grouping_and_order(self):
        segments = [
            seg(b"bb", 0, offset=2),
            seg(b"aa", 0, offset=0),
            seg(b"cc", 1, offset=0),
        ]
        sequences = segment_sequences(segments, 3)
        assert [s.data for s in sequences[0]] == [b"aa", b"bb"]
        assert [s.data for s in sequences[1]] == [b"cc"]
        assert sequences[2] == []


class TestMessageDissimilarity:
    def test_identical_messages_zero(self):
        segments = [seg(b"aa", 0), seg(b"bb", 0, 2), seg(b"aa", 1), seg(b"bb", 1, 2)]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_value_messages_high(self):
        segments = [
            seg(b"\x00\x01", 0),
            seg(b"\x02\x03", 0, 2),
            seg(b"\xf0\xf1", 1),
            seg(b"\xd0\xd1", 1, 2),
        ]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] > 0.4

    def test_shared_prefix_intermediate(self):
        shared = seg(b"\x10\x20", 0)
        segments = [
            shared,
            seg(b"\x02\x03", 0, 2),
            seg(b"\x10\x20", 1),
            seg(b"\xd0\xd1", 1, 2),
        ]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert 0.05 < matrix[0, 1] < 0.9

    def test_symmetric_zero_diagonal(self):
        segments = [
            seg(bytes([i, i + 1]), m, offset=o * 2)
            for m in range(4)
            for o, i in enumerate((m, m + 3, m + 6))
        ]
        matrix = message_dissimilarity_matrix(segments, 4)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_empty_message_maximally_distant(self):
        segments = [seg(b"aa", 0)]
        matrix = message_dissimilarity_matrix(segments, 2)
        assert matrix[0, 1] == 1.0

    def test_different_lengths_aligned(self):
        # Message 1 has an extra segment: still similar, not identical.
        segments = [
            seg(b"\x10\x20", 0),
            seg(b"\x30\x40", 0, 2),
            seg(b"\x10\x20", 1),
            seg(b"\x30\x40", 1, 2),
            seg(b"\x55\x66", 1, 4),
        ]
        # score(A,B) = 2 matches - 1 gap = 1.2, normalized by the longer
        # self-score 3.0 -> dissimilarity 0.6.
        matrix = message_dissimilarity_matrix(segments, 2)
        assert 0.0 < matrix[0, 1] <= 0.6 + 1e-9

    def test_excluded_only_sequences_maximally_distant(self):
        # Identical sequences of excluded segments self-score 0, so the
        # normalization has nothing to divide by: d = 1, not 0.
        distances = np.zeros((1, 1))
        matrix = alignment_dissimilarities([[-1, -1], [-1, -1]], distances)
        assert matrix[0, 1] == 1.0


def assert_matches_oracle(indexed, distances, gap_penalty=similarity.GAP_PENALTY):
    kernel = alignment_dissimilarities(indexed, distances, gap_penalty)
    oracle = alignment_dissimilarities_reference(indexed, distances, gap_penalty)
    assert kernel.dtype == oracle.dtype
    assert kernel.shape == oracle.shape
    assert kernel.tobytes() == oracle.tobytes()


@st.composite
def alignment_inputs(draw):
    """Index sequences over a random table, plus a gap penalty."""
    size = draw(st.integers(0, 6))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    cell = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    table = np.array(
        draw(st.lists(cell, min_size=size * size, max_size=size * size)),
        dtype=dtype,
    ).reshape(size, size)
    index = st.integers(-1, size - 1)
    lengths = st.one_of(st.integers(0, 4), st.integers(0, 40))
    count = draw(st.integers(0, 5))
    indexed = [
        draw(st.lists(index, min_size=length, max_size=length))
        for length in draw(st.lists(lengths, min_size=count, max_size=count))
    ]
    gap_penalty = draw(st.floats(0.0, 2.0))
    return indexed, table, gap_penalty


class TestKernelMatchesOracle:
    """The batched kernel returns the per-pair DP's exact bytes."""

    @settings(max_examples=60, deadline=None)
    @given(alignment_inputs())
    @example(([], np.zeros((0, 0)), 0.8))
    @example(([[], [], []], np.zeros((2, 2)), 0.8))
    @example(([[-1, -1], [-1, -1], [-1]], np.zeros((0, 0)), 0.8))
    @example(([[0], [1], [-1], [0]], np.array([[0.0, 1.0], [1.0, 0.0]]), 0.8))
    @example(([[0, 1, 0], [1], []], np.ones((2, 2), dtype=np.float32), 0.0))
    # Borders are products: six subtractions of 0.1 round differently
    # from -0.1 * 6, and both pairs start with six gaps on a border.
    @example(([[-1] * 6 + [0], [0]], np.zeros((1, 1)), 0.1))
    @example(([[0], [-1] * 6 + [0]], np.zeros((1, 1)), 0.1))
    def test_property(self, inputs):
        indexed, table, gap_penalty = inputs
        assert_matches_oracle(indexed, table, gap_penalty)

    def test_many_batches(self, monkeypatch):
        # A tiny cell budget cuts 45 mixed-length alignments into many
        # batches; no batch boundary may change a byte.
        rng = np.random.default_rng(5)
        table = rng.random((20, 20))
        indexed = [
            rng.integers(-1, 20, size=length).tolist()
            for length in (1, 7, 3, 12, 0, 5, 9, 2, 12, 4)
        ]
        monkeypatch.setattr(similarity, "ALIGN_CELL_BUDGET", 40)
        batches = []
        sweep = similarity._sweep

        def counting_sweep(*args):
            batches.append(len(args[1]))
            return sweep(*args)

        monkeypatch.setattr(similarity, "_sweep", counting_sweep)
        assert_matches_oracle(indexed, table)
        assert sum(batches) == 45
        assert len(batches) > 5

    def test_memmap_matrix_values(self):
        model = get_model("dns")
        trace = model.generate(30, seed=4).preprocess()
        segments = GroundTruthSegmenter(model).segment(trace)
        matrix = DissimilarityMatrix.build(
            unique_segments(segments, min_length=2),
            options=MatrixBuildOptions(storage="memmap"),
        )
        assert isinstance(matrix.values, np.memmap)
        index_of = {u.data: i for i, u in enumerate(matrix.segments)}
        indexed = indexed_sequences(segments, len(trace), index_of)
        assert_matches_oracle(indexed, matrix.values)
