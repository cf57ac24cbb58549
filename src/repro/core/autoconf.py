"""DBSCAN parameter auto-configuration (paper Section III-D, Algorithm 1).

``min_samples`` is ``round(ln n)`` (floored at 2), which "simply prevents
scattering large traces into too many small clusters".

``epsilon`` comes from the k-NN dissimilarity distributions: for each k
in [2, round(ln n)], build the ECDF of all segments' k-th-NN
dissimilarity, smooth it with a B-spline, and measure the sharpness of
its knee as the maximum increase of the smoothed curve.  The k with the
sharpest knee wins, and Kneedle's *rightmost* knee on that curve gives
epsilon.

The multiple-knee fallback (Section III-E) is driven by the caller
(:mod:`repro.core.pipeline`): when one cluster swallows more than 60 %
of the non-noise segments, the auto-configuration is repeated on the
ECDF trimmed below the previously detected knee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.ecdf import Ecdf
from repro.core.kneedle import DEFAULT_SENSITIVITY, Knee, detect_knees, smooth_ecdf
from repro.core.matrix import DissimilarityMatrix


@dataclass(frozen=True)
class AutoConfig:
    """Auto-configured DBSCAN parameters plus diagnostic curves."""

    epsilon: float
    min_samples: int
    k: int
    knee: Knee | None
    curve_x: np.ndarray  # smoothed ECDF grid of the selected k
    curve_y: np.ndarray
    raw_ecdf: Ecdf
    fallback_used: bool = False
    #: All knees Kneedle found on the selected curve, left to right.  More
    #: than one signals the ambiguous-epsilon situation of Section III-E.
    knees: tuple[Knee, ...] = ()
    #: Whether :func:`configure` returned a result it had kept on the
    #: matrix instead of computing it (a diagnostic, not compared).
    reused: bool = field(default=False, compare=False)


def min_samples_for(count: int) -> int:
    """The paper's ``min_samples = max(2, round(ln n))`` rule.

    The floor is unconditional: DBSCAN's density test is meaningless
    with ``min_samples < 2`` (every point would be a core point), so
    even degenerate one- or two-segment traces get the paper's floor.
    """
    return max(2, round(math.log(count))) if count > 1 else 2


def configure(
    matrix: DissimilarityMatrix,
    sensitivity: float = DEFAULT_SENSITIVITY,
    smoothness: float | None = None,
    trim_at: float | None = None,
    grid_points: int = 200,
    memory_bound_bytes: int | None = None,
    workers: int = 1,
) -> AutoConfig:
    """Run Algorithm 1 on the dissimilarity matrix.

    *trim_at* restricts every k-NN ECDF to dissimilarities strictly
    below the given value (the fallback re-run).  When no knee can be
    detected (degenerate distributions), epsilon falls back to the
    median k-NN dissimilarity, flagged via ``fallback_used``.  The k-NN
    selection keeps its row blocks under *memory_bound_bytes* and runs
    them on up to *workers* threads (see
    :meth:`~repro.core.matrix.DissimilarityMatrix.knn_distances_all`).

    The result depends only on the matrix values and the arguments that
    shape Algorithm 1, so it is kept on *matrix*, keyed by them (not by
    the bound or the workers, which change no value): a second call
    returns it again, flagged ``reused`` (a session's drift gate and the
    recluster after it configure the same matrix).
    """
    key = (sensitivity, smoothness, trim_at, grid_points)
    kept = matrix._autoconfigs.get(key)
    if kept is not None:
        return replace(kept, reused=True)
    auto = _configure(
        matrix,
        sensitivity,
        smoothness,
        trim_at,
        grid_points,
        memory_bound_bytes,
        workers,
    )
    matrix._autoconfigs[key] = auto
    return auto


def _configure(
    matrix: DissimilarityMatrix,
    sensitivity: float,
    smoothness: float | None,
    trim_at: float | None,
    grid_points: int,
    memory_bound_bytes: int | None,
    workers: int,
) -> AutoConfig:
    """Algorithm 1 itself; see :func:`configure`."""
    count = len(matrix)
    samples = min_samples_for(count)
    if count < 4:
        # Too few unique segments for a meaningful distribution: accept
        # everything within the observed dissimilarity range.
        epsilon = float(matrix.values.max()) if count > 1 else 0.0
        ecdf = Ecdf.from_samples(matrix.condensed() if count > 1 else [0.0])
        x, y = ecdf.grid(grid_points)
        return AutoConfig(
            epsilon=epsilon,
            min_samples=samples,
            k=1,
            knee=None,
            curve_x=x,
            curve_y=y,
            raw_ecdf=ecdf,
            fallback_used=True,
        )
    k_max = max(2, round(math.log(count)))
    k_hi = min(k_max, count - 1)
    # One selection pass yields every k-th-NN column at once (and the
    # matrix caches it, so the Section III-E retrims that re-enter here
    # with a trim_at reuse the columns instead of re-scanning O(n²)
    # values per k).  Column k-1 is bit-identical to the per-k
    # full-sort reference ``matrix.knn_distances(k)``.
    knn_columns = matrix.knn_distances_all(k_hi, memory_bound_bytes, workers)
    best: tuple[float, int, Ecdf, np.ndarray, np.ndarray] | None = None
    for k in range(2, k_hi + 1):
        ecdf = Ecdf.from_samples(knn_columns[:, k - 1])
        if trim_at is not None:
            try:
                ecdf = ecdf.trim_below(trim_at)
            except ValueError:
                continue
        x, y = smooth_ecdf(ecdf, smoothness=smoothness, points=grid_points)
        sharpness = float(np.max(np.diff(y))) if y.size > 1 else 0.0
        if best is None or sharpness > best[0]:
            best = (sharpness, k, ecdf, x, y)
    if best is None:
        raise ValueError("no k-NN distribution available for auto-configuration")
    _, k_selected, ecdf, x, y = best
    knees = detect_knees(x, y, sensitivity=sensitivity)
    knee = knees[-1] if knees else None
    if knee is not None and knee.x > 0:
        epsilon = float(knee.x)
        fallback = False
    else:
        epsilon = float(np.median(ecdf.samples))
        fallback = True
    return AutoConfig(
        epsilon=epsilon,
        min_samples=samples,
        k=k_selected,
        knee=knee,
        curve_x=x,
        curve_y=y,
        raw_ecdf=ecdf,
        fallback_used=fallback,
        knees=tuple(knees),
    )
