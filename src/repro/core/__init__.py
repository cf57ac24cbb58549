"""Core contribution: field data type clustering of message segments.

Public entry point: :class:`~repro.core.pipeline.FieldTypeClusterer`.

The stages mirror the paper's Section III: segments
(:mod:`~repro.core.segments`), Canberra dissimilarity
(:mod:`~repro.core.canberra`, :mod:`~repro.core.matrix`), DBSCAN
parameter auto-configuration (:mod:`~repro.core.ecdf`,
:mod:`~repro.core.kneedle`, :mod:`~repro.core.autoconf`), clustering
(:mod:`~repro.core.dbscan`), and refinement
(:mod:`~repro.core.refinement`).
"""

from repro.core.autoconf import AutoConfig, configure, min_samples_for
from repro.core.canberra import (
    DEFAULT_PENALTY_FACTOR,
    canberra_dissimilarity,
    canberra_distance,
)
from repro.core.dbscan import NOISE, DbscanResult, dbscan
from repro.core.ecdf import Ecdf
from repro.core.kneedle import Knee, detect_knees, rightmost_knee, smooth_ecdf
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig, ClusteringResult, FieldTypeClusterer
from repro.core.refinement import merge_clusters, percent_rank, refine, split_polarized
from repro.core.segments import (
    Segment,
    UniqueSegment,
    segments_from_fields,
    unique_segments,
)

__all__ = [
    "AutoConfig",
    "ClusteringConfig",
    "ClusteringResult",
    "DEFAULT_PENALTY_FACTOR",
    "DbscanResult",
    "DissimilarityMatrix",
    "Ecdf",
    "FieldTypeClusterer",
    "Knee",
    "MatrixBuildOptions",
    "NOISE",
    "Segment",
    "UniqueSegment",
    "canberra_dissimilarity",
    "canberra_distance",
    "configure",
    "dbscan",
    "detect_knees",
    "merge_clusters",
    "min_samples_for",
    "percent_rank",
    "refine",
    "rightmost_knee",
    "segments_from_fields",
    "smooth_ecdf",
    "split_polarized",
    "unique_segments",
]
