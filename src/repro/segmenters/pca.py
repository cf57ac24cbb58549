"""PCA boundary refinement (Kleber & Kargl, "Refining Network Message
Segmentation with Principal Component Analysis", arXiv 2301.03585).

A heuristic segmenter's boundary errors are *systematic*: when NEMESYS
glues a constant header byte onto the varying field that follows it,
it does so for every message with that header, and the resulting
segments land in one field-type cluster together.  Within such a
cluster the per-byte value variance is concentrated at the misplaced
edge — the aligned byte columns of the common (correctly cut) part are
near-constant, while the foreign bytes dragged in from the neighboring
field vary freely.  Principal component analysis over the cluster's
aligned byte matrix makes that concentration measurable: the leading
eigenvectors load almost exclusively on the misplaced edge positions.

:class:`PcaRefiner` exploits this as a post-pass over any segmenter's
output:

1. run the ordinary field-type clustering over the unrefined segments
   (the same config, so the dissimilarity matrix is bit-identical
   across worker counts and the pass is deterministic);
2. per cluster, align the members of the modal length into an
   ``m x L`` byte matrix and eigendecompose its column covariance;
3. when the high-loading positions of the dominant components form one
   contiguous run touching exactly one segment edge — and every
   position *outside* the run is essentially constant — relocate the
   boundary by the run length (shift the cut, or split at a message
   edge where no cut exists);
4. rebuild only the messages whose cut set actually changed.

The off-run quietness gate in step 3 is what makes the pass a no-op on
ground-truth segmentation: a true value field (timestamp, counter,
identifier) varies across *many* byte positions, so its variance never
looks like a silent field with a foreign edge.  Single-member clusters
have no column variance at all and never propose anything.

:class:`RefinedSegmenter` composes the pass with any registered
segmenter (``resolve_segmenter(name, refinement="pca")``); it is not
incremental — the pass needs the whole trace's clusters — so analysis
sessions refuse it like any other trace-global segmenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.segments import Segment, UniqueSegment
from repro.net.trace import Trace
from repro.obs.tracer import get_tracer
from repro.segmenters.base import Segmenter, boundaries_to_segments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.pipeline import ClusteringConfig

#: A cluster contributes to refinement only when at least this many
#: distinct values share the modal length — fewer rows make the column
#: covariance meaningless (and single-member clusters never qualify).
MIN_CLUSTER_ROWS = 5

#: A principal component is considered only when it explains at least
#: this share of the cluster's total byte variance.
EIGEN_SHARE = 0.1

#: A byte position loads "high" on a component when its |loading| is at
#: least this fraction of the component's maximum |loading|.
LOADING_THRESHOLD = 0.66

#: Off-run quietness: every column outside the proposed boundary run
#: must have a standard deviation of at most this fraction of the run's
#: peak column deviation.  This is the gate that keeps true value
#: fields (variance spread over many positions) untouched.
QUIET_STD_RATIO = 0.05

#: Boundaries move by at most this many bytes in one pass.
MAX_SHIFT = 3


@dataclass
class RefinementStats:
    """Outcome of one :meth:`PcaRefiner.refine` pass."""

    #: Clusters inspected (all clusters of the preliminary clustering).
    clusters_scanned: int = 0
    #: Clusters that proposed a boundary relocation.
    clusters_refined: int = 0
    #: Cuts relocated to a previously cut-free position.
    shifted: int = 0
    #: Cuts whose relocation target already held a cut (net removal).
    merged: int = 0
    #: Cuts introduced at a message edge where none existed (net add).
    split: int = 0
    #: Messages whose segment list was rebuilt.
    messages_rebuilt: int = 0

    @property
    def boundaries_moved(self) -> int:
        """Total boundary decisions applied (shift + merge + split)."""
        return self.shifted + self.merged + self.split


@dataclass(frozen=True)
class _Proposal:
    """One boundary relocation: drop *remove* (if any), add *add*."""

    message_index: int
    remove: int | None
    add: int
    decision: str  # provisional; merges are reclassified on apply


class PcaRefiner:
    """Per-cluster PCA boundary refinement over a segmenter's output.

    *config* is the :class:`~repro.core.pipeline.ClusteringConfig` the
    preliminary field-type clustering runs with; passing the analysis
    run's own config keeps the pass deterministic across matrix worker
    counts (the dissimilarity matrix build is bit-identical) and spares
    a second parameterization.  The thresholds default to the module
    constants and exist as keywords for experimentation.
    """

    def __init__(
        self,
        config: "ClusteringConfig | None" = None,
        *,
        min_cluster_rows: int = MIN_CLUSTER_ROWS,
        eigen_share: float = EIGEN_SHARE,
        loading_threshold: float = LOADING_THRESHOLD,
        quiet_std_ratio: float = QUIET_STD_RATIO,
        max_shift: int = MAX_SHIFT,
    ) -> None:
        self.config = config
        self.min_cluster_rows = int(min_cluster_rows)
        self.eigen_share = float(eigen_share)
        self.loading_threshold = float(loading_threshold)
        self.quiet_std_ratio = float(quiet_std_ratio)
        self.max_shift = int(max_shift)
        #: Stats of the most recent :meth:`refine` pass.
        self.last_stats = RefinementStats()

    # -- the per-cluster decision -------------------------------------

    def propose_shift(self, rows: np.ndarray) -> tuple[str, int] | None:
        """Boundary decision for one aligned cluster byte matrix.

        *rows* is the ``m x L`` matrix of equal-length cluster member
        values.  Returns ``("leading", r)`` / ``("trailing", r)`` when
        the dominant principal components load on one contiguous run of
        ``r`` positions touching exactly one edge while the rest of the
        columns are quiet, else None.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("propose_shift expects an m x L matrix")
        m, length = rows.shape
        if m < 2 or length < 2:
            return None
        centered = rows - rows.mean(axis=0)
        col_var = centered.var(axis=0)
        total = float(col_var.sum())
        if total <= 1e-12:
            return None  # constant cluster: nothing varies, nothing moves
        covariance = (centered.T @ centered) / (m - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        share = eigenvalues / max(float(eigenvalues.sum()), 1e-12)
        high = np.zeros(length, dtype=bool)
        for component in range(length - 1, -1, -1):
            if share[component] < self.eigen_share:
                break  # eigh sorts ascending; the rest are smaller still
            loadings = np.abs(eigenvectors[:, component])
            high |= loadings >= self.loading_threshold * loadings.max()
        positions = np.flatnonzero(high)
        if positions.size == 0 or positions.size >= length:
            return None
        run = int(positions.size)
        contiguous = positions[-1] - positions[0] + 1 == run
        if not contiguous or run > self.max_shift:
            return None
        if positions[0] == 0 and positions[-1] < length - 1:
            edge, quiet = "leading", np.arange(run, length)
        elif positions[-1] == length - 1 and positions[0] > 0:
            edge, quiet = "trailing", np.arange(0, length - run)
        else:
            return None  # interior variance is a field property, not a cut
        run_std = float(np.sqrt(col_var[positions]).max())
        quiet_std = float(np.sqrt(col_var[quiet]).max())
        if quiet_std > self.quiet_std_ratio * run_std:
            return None  # variance is spread: a true value field
        return edge, run

    # -- the full pass ------------------------------------------------

    def refine(self, trace: Trace, segments: list[Segment]) -> list[Segment]:
        """Refine *segments* of *trace*; returns the new flat list.

        Runs inside one ``refine.pca`` span, which carries the decision
        counts (``shifted``/``merged``/``split``).  Returns the input
        list unchanged (same object) when nothing moves.
        """
        stats = RefinementStats()
        self.last_stats = stats
        with get_tracer().span(
            "refine.pca", segments=len(segments), messages=len(trace)
        ) as span:
            proposals = self._collect_proposals(trace, segments, stats)
            refined = self._apply(trace, segments, proposals, stats)
            span.set(
                clusters_scanned=stats.clusters_scanned,
                clusters_refined=stats.clusters_refined,
                shifted=stats.shifted,
                merged=stats.merged,
                split=stats.split,
                messages_rebuilt=stats.messages_rebuilt,
            )
        return refined

    def _collect_proposals(
        self, trace: Trace, segments: list[Segment], stats: RefinementStats
    ) -> list[_Proposal]:
        from repro.core.pipeline import FieldTypeClusterer

        try:
            result = FieldTypeClusterer(self.config).cluster(segments)
        except ValueError:
            return []  # no analyzable segments: nothing to refine
        proposals: list[_Proposal] = []
        for members in result.clusters:
            stats.clusters_scanned += 1
            uniques = [result.segments[i] for i in members]
            # Dissector-derived segments carry ground-truth ftype labels:
            # those boundaries are authoritative, and a true field whose
            # variance happens to sit at one edge (an IPv4 host byte, a
            # MAC address behind a fixed OUI) must not be "refined".
            # Heuristic segments have no labels at segmentation time.
            if any(
                occurrence.ftype is not None
                for unique in uniques
                for occurrence in unique.occurrences
            ):
                continue
            rows = self._modal_rows(uniques)
            if rows is None:
                continue
            aligned, modal_members = rows
            decision = self.propose_shift(aligned)
            if decision is None:
                continue
            stats.clusters_refined += 1
            edge, run = decision
            for unique in modal_members:
                for occurrence in unique.occurrences:
                    data_length = len(trace[occurrence.message_index].data)
                    proposals.append(
                        self._relocate(occurrence, edge, run, data_length)
                    )
        return proposals

    def _modal_rows(
        self, uniques: list[UniqueSegment]
    ) -> tuple[np.ndarray, list[UniqueSegment]] | None:
        """The cluster's modal-length byte matrix plus its row members."""
        counts: dict[int, int] = {}
        for unique in uniques:
            counts[unique.length] = counts.get(unique.length, 0) + 1
        # Deterministic mode: most members first, shorter length on ties.
        length = min(counts, key=lambda le: (-counts[le], le))
        members = [u for u in uniques if u.length == length]
        if length < 2 or len(members) < self.min_cluster_rows:
            return None
        aligned = np.frombuffer(
            b"".join(u.data for u in members), dtype=np.uint8
        ).reshape(len(members), length)
        return aligned.astype(np.float64), members

    @staticmethod
    def _relocate(
        occurrence: Segment, edge: str, run: int, data_length: int
    ) -> _Proposal:
        length = len(occurrence.data)
        if edge == "leading":
            # The foreign head belongs to the previous field: the start
            # cut moves right.  offset == 0 has no cut; split instead.
            remove = occurrence.offset if occurrence.offset > 0 else None
            add = occurrence.offset + run
        else:
            # The foreign tail belongs to the next field: the end cut
            # moves left.  A message-final segment has no end cut.
            end = occurrence.offset + length
            remove = end if end < data_length else None
            add = occurrence.offset + length - run
        decision = "shift" if remove is not None else "split"
        return _Proposal(
            message_index=occurrence.message_index,
            remove=remove,
            add=add,
            decision=decision,
        )

    def _apply(
        self,
        trace: Trace,
        segments: list[Segment],
        proposals: list[_Proposal],
        stats: RefinementStats,
    ) -> list[Segment]:
        if not proposals:
            return segments
        by_message: dict[int, list[Segment]] = {}
        for segment in segments:
            by_message.setdefault(segment.message_index, []).append(segment)
        cuts: dict[int, set[int]] = {
            index: {s.offset for s in members if s.offset > 0}
            for index, members in by_message.items()
        }
        changed: set[int] = set()
        # Deterministic order; the first proposal touching a cut wins.
        for proposal in sorted(
            proposals, key=lambda p: (p.message_index, p.add, p.remove or -1)
        ):
            message_cuts = cuts[proposal.message_index]
            data_length = len(trace[proposal.message_index].data)
            if not 0 < proposal.add < data_length:
                continue
            if proposal.remove is not None and proposal.remove not in message_cuts:
                continue  # an earlier proposal already moved this cut
            if proposal.remove is not None:
                message_cuts.discard(proposal.remove)
                decision = "merge" if proposal.add in message_cuts else "shift"
            else:
                if proposal.add in message_cuts:
                    continue  # split target already cut: nothing to do
                decision = "split"
            message_cuts.add(proposal.add)
            changed.add(proposal.message_index)
            if decision == "shift":
                stats.shifted += 1
            elif decision == "merge":
                stats.merged += 1
            else:
                stats.split += 1
        if not changed:
            return segments
        stats.messages_rebuilt = len(changed)
        refined: list[Segment] = []
        for index in sorted(by_message):
            if index in changed:
                refined.extend(
                    boundaries_to_segments(
                        trace[index].data, sorted(cuts[index]), index
                    )
                )
            else:
                refined.extend(by_message[index])
        return refined


class RefinedSegmenter(Segmenter):
    """A segmenter composed with the PCA boundary-refinement pass.

    Wraps any :class:`~repro.segmenters.base.Segmenter`; its name is
    ``<base>+pca`` so tables and spans attribute results to the
    composition.  Not incremental: the pass clusters the whole trace,
    so chunked segmentation would diverge from a batch pass and
    :class:`~repro.session.AnalysisSession` refuses it.
    """

    incremental = False

    def __init__(
        self,
        base: Segmenter,
        refiner: PcaRefiner | None = None,
        config: "ClusteringConfig | None" = None,
    ) -> None:
        if not isinstance(base, Segmenter):
            raise TypeError(
                f"RefinedSegmenter wraps a Segmenter instance, got {base!r}"
            )
        self.base = base
        self.refiner = refiner or PcaRefiner(config)
        self.name = f"{base.name}+pca"

    @property
    def last_refinement(self) -> RefinementStats:
        """Stats of the most recent refinement pass."""
        return self.refiner.last_stats

    def segment_message(self, data: bytes, message_index: int = 0) -> list[Segment]:
        """Single-message segmentation delegates to the base segmenter
        (refinement needs cluster context across the whole trace)."""
        return self.base.segment_message(data, message_index)

    def segment_trace(self, trace: Trace) -> list[Segment]:
        """Base segmentation followed by the PCA refinement pass."""
        return self.refiner.refine(trace, self.base.segment_trace(trace))
