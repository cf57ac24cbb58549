"""PCA boundary refinement: decision properties and full-pass invariants.

The per-cluster decision (:meth:`PcaRefiner.propose_shift`) is pure
linear algebra over an ``m x L`` byte matrix, so it gets direct
property tests; the full pass (:meth:`PcaRefiner.refine`) is pinned
through its structural invariants — refined segments always partition
their messages — plus the two behavioural contracts the corpus relies
on: ground-truth segmentation is a fixed point, and the pass is
bit-deterministic across matrix-backend worker counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.protocols import get_model
from repro.segmenters import (
    PcaRefiner,
    RefinedSegmenter,
    available_refinements,
    resolve_segmenter,
)
from repro.segmenters.groundtruth import GroundTruthSegmenter

SEED = 509
MESSAGES = 60


def serial_config() -> ClusteringConfig:
    return ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=1, use_cache=False)
    )


def refined_nemesys(workers: int = 1) -> RefinedSegmenter:
    config = ClusteringConfig(
        matrix_options=MatrixBuildOptions(
            workers=workers,
            parallel_threshold=0,
            use_cache=False,
        )
    )
    segmenter = resolve_segmenter("nemesys", refinement="pca", config=config)
    assert isinstance(segmenter, RefinedSegmenter)
    return segmenter


class TestProposeShift:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=2, max_value=16),
    )
    def test_constant_matrix_proposes_nothing(self, value, m, length):
        rows = np.full((m, length), value, dtype=np.float64)
        assert PcaRefiner().propose_shift(rows) is None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_matrix_proposal_is_valid_or_none(self, data):
        m = data.draw(st.integers(min_value=2, max_value=10))
        length = data.draw(st.integers(min_value=2, max_value=12))
        rows = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=255),
                        min_size=length,
                        max_size=length,
                    ),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=np.float64,
        )
        refiner = PcaRefiner()
        decision = refiner.propose_shift(rows)
        if decision is None:
            return
        edge, run = decision
        assert edge in ("leading", "trailing")
        assert 1 <= run <= refiner.max_shift
        assert run < length  # never consumes the whole segment

    @staticmethod
    def _foreign_bytes(run: int, seed: int, m: int = 8) -> np.ndarray:
        """An ``m x run`` block of co-varying foreign-field bytes.

        Glued boundary bytes belong to *one* neighboring field, so they
        vary together across messages; a single dominant component then
        spans the whole run (independent columns may split across
        components below the eigen-share floor, which the refiner
        rightly rejects as inconclusive).
        """
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 200, size=m).astype(np.float64)
        values[0], values[1] = 0.0, 199.0  # guarantee variance
        return np.stack([values + column for column in range(run)], axis=1)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_varying_tail_is_a_trailing_run(self, run, quiet, seed):
        # Constant prefix + co-varying tail of `run` foreign bytes: the
        # canonical glued-boundary shape.
        rows = np.hstack(
            [np.full((8, quiet), 7.0), self._foreign_bytes(run, seed)]
        )
        assert PcaRefiner().propose_shift(rows) == ("trailing", run)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_varying_head_is_a_leading_run(self, run, quiet, seed):
        rows = np.hstack(
            [self._foreign_bytes(run, seed), np.full((8, quiet), 42.0)]
        )
        assert PcaRefiner().propose_shift(rows) == ("leading", run)

    def test_interior_variance_is_not_a_boundary(self):
        rng = np.random.default_rng(5)
        rows = np.full((8, 7), 3.0)
        rows[:, 3] = rng.integers(0, 256, size=8)
        assert PcaRefiner().propose_shift(rows) is None

    def test_spread_variance_is_a_value_field(self):
        # Variance over every column (a timestamp, say) fails the
        # off-run quietness gate: nothing is proposed.
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 256, size=(10, 6)).astype(np.float64)
        assert PcaRefiner().propose_shift(rows) is None

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            PcaRefiner().propose_shift(np.zeros(4))


class TestFullPass:
    @pytest.mark.parametrize("protocol", ("dhcp", "dns", "ntp", "nbns"))
    def test_refined_segments_partition_messages(self, protocol):
        model = get_model(protocol)
        trace = model.generate(MESSAGES, seed=SEED).preprocess()
        segmenter = refined_nemesys()
        refined = segmenter.segment(trace)
        by_message: dict[int, list] = {}
        for segment in refined:
            by_message.setdefault(segment.message_index, []).append(segment)
        assert set(by_message) == set(range(len(trace)))
        for index, members in by_message.items():
            offsets = [s.offset for s in members]
            assert offsets == sorted(offsets)
            assert len(set(offsets)) == len(offsets)
            assert offsets[0] == 0
            assert b"".join(s.data for s in members) == trace[index].data

    @pytest.mark.parametrize("protocol", ("dhcp", "dns", "ntp", "nbns", "smb", "awdl"))
    def test_groundtruth_is_a_fixed_point(self, protocol):
        # Dissector boundaries are authoritative: the refiner must not
        # move a single one, even for fields whose variance sits at one
        # edge (IPv4 host bytes, MAC addresses behind a constant OUI).
        model = get_model(protocol)
        trace = model.generate(MESSAGES, seed=SEED).preprocess()
        base = GroundTruthSegmenter(model)
        refiner = PcaRefiner(serial_config())
        segments = base.segment(trace)
        refined = refiner.refine(trace, segments)
        assert refined is segments  # unchanged list, not just equal
        assert refiner.last_stats.boundaries_moved == 0

    def test_deterministic_across_worker_counts(self):
        model = get_model("dhcp")
        trace = model.generate(MESSAGES, seed=SEED).preprocess()
        outcomes = []
        for workers in (0, 2):
            segmenter = refined_nemesys(workers=workers)
            refined = segmenter.segment(trace)
            outcomes.append(
                (
                    [(s.message_index, s.offset, s.data) for s in refined],
                    segmenter.last_refinement.shifted,
                    segmenter.last_refinement.merged,
                    segmenter.last_refinement.split,
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] + outcomes[0][2] + outcomes[0][3] > 0

    def test_empty_trace_is_untouched(self):
        from repro.net.trace import Trace

        trace = Trace(messages=[], protocol="empty")
        refiner = PcaRefiner(serial_config())
        segments: list = []
        assert refiner.refine(trace, segments) is segments
        assert refiner.last_stats.boundaries_moved == 0


class TestComposition:
    def test_registry_exposes_refinements(self):
        assert available_refinements() == ("none", "pca")

    def test_unknown_refinement_rejected(self):
        with pytest.raises(ValueError, match="refinement"):
            resolve_segmenter("nemesys", refinement="typo")

    def test_wrapped_name_and_incrementality(self):
        segmenter = refined_nemesys()
        assert segmenter.name == "nemesys+pca"
        assert segmenter.incremental is False

    def test_none_refinement_returns_base(self):
        segmenter = resolve_segmenter("nemesys", refinement="none")
        assert not isinstance(segmenter, RefinedSegmenter)

    def test_single_message_delegates_to_base(self):
        segmenter = refined_nemesys()
        data = bytes(range(48))
        assert [
            (s.offset, s.data) for s in segmenter.segment_message(data, 0)
        ] == [(s.offset, s.data) for s in segmenter.base.segment_message(data, 0)]
