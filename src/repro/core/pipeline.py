"""End-to-end field data type clustering (paper Section III, Figure 1).

:class:`FieldTypeClusterer` wires the stages together: unique-segment
extraction → dissimilarity matrix → epsilon auto-configuration → DBSCAN
→ giant-cluster fallback → refinement.  The output
:class:`ClusteringResult` groups unique segments into *pseudo data
types* and retains every intermediate artefact the evaluation needs
(epsilon, ECDF curves, the matrix itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.autoconf import AutoConfig, configure
from repro.core.canberra import DEFAULT_PENALTY_FACTOR
from repro.core.dbscan import DbscanResult, dbscan
from repro.core.kneedle import DEFAULT_SENSITIVITY
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.refinement import (
    EPSILON_RHO_THRESHOLD,
    NEIGHBOR_DENSITY_THRESHOLD,
    refine,
)
from repro.core.segments import Segment, UniqueSegment, unique_segments
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

#: Bucket bounds for the cluster-size distribution histogram.
CLUSTER_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)


@dataclass(frozen=True)
class ClusteringConfig:
    """Tunables of the pipeline; defaults are the paper's choices."""

    penalty_factor: float = DEFAULT_PENALTY_FACTOR
    sensitivity: float = DEFAULT_SENSITIVITY
    smoothness: float | None = None
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD
    merge: bool = True
    split: bool = True
    #: Cap on merge link distances, as a multiple of the DBSCAN epsilon.
    link_cap_factor: float = 1.5
    min_segment_length: int = 2
    #: One cluster holding more than this fraction of non-noise segments
    #: triggers the trim-and-retry epsilon fallback (Section III-E) when
    #: the ECDF showed multiple knees.
    giant_cluster_fraction: float = 0.6
    #: Above this fraction the clustering is degenerate regardless of how
    #: many knees were detected (a single cluster swallowing ~everything
    #: cannot be a data type); the fallback then runs unconditionally.
    extreme_cluster_fraction: float = 0.9
    max_retrims: int = 3
    #: Fixed epsilon override for ablation studies (skips Algorithm 1).
    fixed_epsilon: float | None = None
    #: Count each unique value's occurrences toward DBSCAN density
    #: (scikit-learn sample_weight semantics).  Off by default: it raises
    #: coverage for heavily repeated values (padding, constants) but lets
    #: frequent values over-densify their neighborhoods and chain types
    #: together; kept as an ablation knob.
    weighted_density: bool = False
    #: Matrix execution backend (workers / on-disk cache / dtype /
    #: storage); None means ``MatrixBuildOptions()``.
    matrix_options: MatrixBuildOptions | None = None
    #: Boundary-refinement pass composed with the segmenter ("none" or
    #: "pca", see :mod:`repro.segmenters.pca`).  Consumed by
    #: :func:`repro.segmenters.resolve_segmenter` via the analysis entry
    #: points; :class:`FieldTypeClusterer` itself ignores it, so the
    #: refiner can reuse the same config for its preliminary clustering.
    refinement: str = "none"
    #: Working-set byte budget for the post-matrix blockwise scans
    #: (k-NN extraction, DBSCAN's epsilon-adjacency, refinement); None uses
    #: :data:`repro.core.membound.DEFAULT_MEMORY_BOUND_BYTES`.
    memory_bound_bytes: int | None = None

    @classmethod
    def from_args(cls, args, **overrides) -> "ClusteringConfig":
        """Build a config from the shared CLI flags (:mod:`repro.cliopts`).

        Reads ``args.workers`` / ``args.no_cache`` / ``args.cache_dir``
        / ``args.matrix_dtype`` / ``args.matrix_memmap`` into explicit
        :attr:`matrix_options`, plus ``args.memory_bound_mb`` into the
        post-matrix working-set bound, so every CLI run carries its
        backend in one config.  *overrides* are forwarded to the
        constructor.
        """
        from repro.core.matrix import STORAGE_MEMMAP, STORAGE_RAM

        options = MatrixBuildOptions(
            workers=getattr(args, "workers", None),
            use_cache=not getattr(args, "no_cache", False),
            cache_dir=getattr(args, "cache_dir", None),
            dtype=getattr(args, "matrix_dtype", None) or "float64",
            storage=(
                STORAGE_MEMMAP
                if getattr(args, "matrix_memmap", False)
                else STORAGE_RAM
            ),
        )
        bound_mb = getattr(args, "memory_bound_mb", None)
        overrides.setdefault(
            "refinement", getattr(args, "refinement", None) or "none"
        )
        return cls(
            matrix_options=options,
            memory_bound_bytes=(
                int(bound_mb) * 1024 * 1024 if bound_mb is not None else None
            ),
            **overrides,
        )


@dataclass
class ClusteringResult:
    """Pseudo data types for one trace."""

    segments: list[UniqueSegment]
    clusters: list[np.ndarray]  # member indices into ``segments``
    noise: np.ndarray
    autoconfig: AutoConfig
    matrix: DissimilarityMatrix
    dbscan_result: DbscanResult
    retrims: int = 0
    #: Unique segments excluded before clustering (shorter than minimum).
    excluded: list[UniqueSegment] = field(default_factory=list)

    @property
    def epsilon(self) -> float:
        return self.autoconfig.epsilon

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def cluster_members(self, index: int) -> list[UniqueSegment]:
        return [self.segments[i] for i in self.clusters[index]]

    def noise_members(self) -> list[UniqueSegment]:
        return [self.segments[i] for i in self.noise]

    @property
    def clustered_unique_count(self) -> int:
        return sum(len(c) for c in self.clusters)

    def covered_bytes(self) -> int:
        """Message bytes covered by occurrences of clustered segments."""
        return sum(
            self.segments[i].covered_bytes for cluster in self.clusters for i in cluster
        )

    def labels(self) -> np.ndarray:
        """Per-unique-segment labels after refinement (-1 = noise)."""
        labels = np.full(len(self.segments), -1, dtype=np.int64)
        for cluster_id, members in enumerate(self.clusters):
            labels[members] = cluster_id
        return labels


class FieldTypeClusterer:
    """The paper's fully automated pseudo-data-type clustering method."""

    def __init__(self, config: ClusteringConfig | None = None):
        self.config = config or ClusteringConfig()

    def cluster(self, segments: list[Segment]) -> ClusteringResult:
        """Cluster field candidates into pseudo data types.

        Each stage runs inside a span on the active tracer (``matrix``,
        ``autoconf``, ``dbscan``, ``refine`` under one ``pipeline``
        root); the spans carry the stage durations and outcomes, and the
        cluster-size distribution goes to the active metrics registry.
        """
        config = self.config
        tracer = get_tracer()
        with tracer.span("pipeline", segments=len(segments)) as pipeline_span:
            analyzable, excluded = self._partition_unique(segments)
            pipeline_span.set(
                unique_segments=len(analyzable), excluded=len(excluded)
            )
            with tracer.span("matrix", unique_segments=len(analyzable)) as matrix_span:
                matrix = DissimilarityMatrix.build(
                    analyzable,
                    penalty_factor=config.penalty_factor,
                    options=config.matrix_options,
                )
                if matrix.stats is not None:
                    matrix_span.set(
                        backend=matrix.stats.backend,
                        cache_hit=matrix.stats.cache_hit,
                    )
            return self._post_matrix(matrix, excluded, tracer, pipeline_span)

    def cluster_matrix(
        self,
        matrix: DissimilarityMatrix,
        excluded: list[UniqueSegment] | None = None,
    ) -> ClusteringResult:
        """Run the post-matrix stages over a prebuilt dissimilarity matrix.

        The entry point for callers that already own a matrix — above
        all the incremental session, whose :class:`~repro.core.matrix.
        AppendableMatrix` grows it across appends — so a recluster pays
        for autoconf + DBSCAN + refinement but never for the O(n²)
        matrix.  ``matrix.segments`` must be the analyzable unique
        segments (deduplicated, at least ``min_segment_length`` long);
        *excluded* carries the too-short uniques for reporting parity
        with :meth:`cluster`.  Identical matrix + config produce a
        result identical to the batch path, because the stages are the
        same code.
        """
        analyzable = matrix.segments
        if not analyzable:
            raise ValueError("no analyzable segments (empty matrix)")
        excluded = list(excluded) if excluded is not None else []
        tracer = get_tracer()
        with tracer.span("pipeline", segments=len(analyzable)) as pipeline_span:
            pipeline_span.set(
                unique_segments=len(analyzable), excluded=len(excluded)
            )
            return self._post_matrix(matrix, excluded, tracer, pipeline_span)

    def _partition_unique(
        self, segments: list[Segment]
    ) -> tuple[list[UniqueSegment], list[UniqueSegment]]:
        """Unique segments split into (analyzable, too-short excluded)."""
        config = self.config
        all_unique = unique_segments(segments, min_length=1)
        analyzable = [
            u for u in all_unique if u.length >= config.min_segment_length
        ]
        excluded = [u for u in all_unique if u.length < config.min_segment_length]
        if not analyzable:
            raise ValueError(
                "no analyzable segments (all shorter than the minimum)"
            )
        return analyzable, excluded

    def _post_matrix(self, matrix, excluded, tracer, pipeline_span) -> ClusteringResult:
        """Autoconf → DBSCAN (+ fallback) → refinement over *matrix*."""
        config = self.config
        analyzable = matrix.segments
        weights = (
            np.array([u.count for u in analyzable], dtype=np.float64)
            if config.weighted_density
            else None
        )
        with tracer.span("autoconf") as autoconf_span:
            auto = self._configure(matrix, trim_at=None)
            autoconf_span.set(
                epsilon=auto.epsilon,
                min_samples=auto.min_samples,
                knees=len(auto.knees),
                k=auto.k,
                fallback=auto.fallback_used,
            )
        with tracer.span("dbscan") as dbscan_span:

            def run_dbscan(epsilon: float, min_samples: int) -> DbscanResult:
                return dbscan(
                    matrix.values,
                    epsilon,
                    min_samples,
                    weights=weights,
                    memory_bound_bytes=config.memory_bound_bytes,
                )

            result = run_dbscan(auto.epsilon, auto.min_samples)
            retrims = 0
            # Section III-E fallback, step 1: with multiple detected
            # knees and a giant cluster, "instead select the next
            # smaller knee for an epsilon".  Accepted only if it
            # actually resolves the giant cluster (otherwise the
            # smaller knee was not a density level either, and step 2
            # below walks down via ECDF trimming).
            if len(auto.knees) >= 2 and self._has_giant_cluster(result):
                smaller_knee = auto.knees[-2]
                candidate = run_dbscan(smaller_knee.x, auto.min_samples)
                if candidate.cluster_count and not self._has_giant_cluster(candidate):
                    auto = replace(auto, epsilon=smaller_knee.x, knee=smaller_knee)
                    result = candidate
                    retrims += 1
            trim_at = auto.knee.x if auto.knee is not None else None
            # Step 2: repeat the auto-configuration on the ECDF trimmed
            # below the detected knee.  Only the multiple-knee situation
            # makes the detected epsilon untrustworthy; a legitimately
            # dominant data type (e.g. NTP timestamps) must not trigger
            # a retrim.
            while (
                retrims < config.max_retrims
                and trim_at is not None
                and (
                    (len(auto.knees) >= 2 and self._has_giant_cluster(result))
                    or self._has_giant_cluster(
                        result, config.extreme_cluster_fraction
                    )
                )
            ):
                try:
                    retry = self._configure(matrix, trim_at=trim_at)
                except ValueError:
                    # Trimming below the knee emptied every k-NN
                    # distribution (near-constant dissimilarities
                    # collapse the grid to the knee itself): there is
                    # no smaller density level to walk down to, so
                    # keep the previous clustering.
                    break
                if retry.epsilon >= auto.epsilon or retry.epsilon <= 0:
                    break
                candidate = run_dbscan(retry.epsilon, retry.min_samples)
                # A smaller epsilon that mostly manufactures noise did
                # not find a better density level — keep the previous
                # clustering.
                previous_clustered = len(result.labels) - len(result.noise)
                candidate_clustered = len(candidate.labels) - len(candidate.noise)
                if candidate_clustered < 0.5 * previous_clustered:
                    break
                auto = retry
                result = candidate
                trim_at = auto.knee.x if auto.knee is not None else None
                retrims += 1
            dbscan_span.set(
                epsilon=auto.epsilon,
                clusters=result.cluster_count,
                noise=len(result.noise),
                retrims=retrims,
            )
        with tracer.span("refine") as refine_span:
            clusters = result.clusters()
            refined = refine(
                matrix.values,
                clusters,
                analyzable,
                eps_rho_threshold=config.eps_rho_threshold,
                neighbor_density_threshold=config.neighbor_density_threshold,
                merge=config.merge,
                split=config.split,
                link_cap=config.link_cap_factor * auto.epsilon,
                memory_bound_bytes=config.memory_bound_bytes,
            )
            refine_span.set(clusters_in=len(clusters), clusters_out=len(refined))
        clustered = (
            np.concatenate(refined) if refined else np.array([], dtype=np.int64)
        )
        noise = np.setdiff1d(np.arange(len(analyzable)), clustered)
        pipeline_span.set(clusters=len(refined), noise=len(noise))
        size_histogram = get_metrics().histogram(
            "repro_cluster_size",
            help="Distribution of cluster sizes (unique segments per cluster).",
            buckets=CLUSTER_SIZE_BUCKETS,
        )
        for members in refined:
            size_histogram.observe(len(members))
        return ClusteringResult(
            segments=analyzable,
            clusters=refined,
            noise=noise,
            autoconfig=auto,
            matrix=matrix,
            dbscan_result=result,
            retrims=retrims,
            excluded=excluded,
        )

    def _configure(self, matrix: DissimilarityMatrix, trim_at: float | None) -> AutoConfig:
        config = self.config
        auto = configure(
            matrix,
            sensitivity=config.sensitivity,
            smoothness=config.smoothness,
            trim_at=trim_at,
        )
        if config.fixed_epsilon is not None:
            auto = replace(auto, epsilon=config.fixed_epsilon)
        return auto

    def _has_giant_cluster(self, result: DbscanResult, fraction: float | None = None) -> bool:
        if fraction is None:
            fraction = self.config.giant_cluster_fraction
        sizes = [len(result.members(c)) for c in range(result.cluster_count)]
        non_noise = sum(sizes)
        if not non_noise:
            return False
        return max(sizes) > fraction * non_noise
