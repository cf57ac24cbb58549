"""Kneedle knee-point detection (Satopaa et al., ICDCSW 2011).

Used by the epsilon auto-configuration (paper Section III-D) to find the
knee of the smoothed k-NN-dissimilarity ECDF.  The implementation covers
the concave-increasing case, which is the shape of an ECDF: the knee is
where the curve flattens after its steep rise.

The algorithm: normalize the curve to the unit square, compute the
difference curve ``d = y - x``, and report a knee at each local maximum
of ``d`` whose difference value subsequently drops below the threshold
``d_max - S * mean_spacing`` before the next local maximum rises.  The
*last* local maximum is additionally reported when the curve ends
before the drop occurs — this is the offline variant of Kneedle, which
has the whole curve in hand and therefore knows no later maximum can
displace the trailing candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ecdf import Ecdf

DEFAULT_SENSITIVITY = 1.0

#: Default B-spline smoothing factor for ECDF curves.  Strong enough to
#: suppress sampling wiggles that would otherwise register as spurious
#: rightmost knees, weak enough to keep the knee position (validated
#: against the paper's Figure 2 epsilon for NTP).
DEFAULT_SMOOTHNESS = 0.05


@dataclass(frozen=True)
class Knee:
    """One detected knee: position in original coordinates."""

    x: float
    y: float
    index: int
    difference: float  # height of the normalized difference curve


def normalize(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    span = values.max() - values.min()
    if span <= 0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def detect_knees(
    x,
    y,
    sensitivity: float = DEFAULT_SENSITIVITY,
) -> list[Knee]:
    """All knees of a concave-increasing curve, left to right."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 3:
        return []
    xn = normalize(x)
    yn = normalize(y)
    difference = yn - xn
    # Local maxima of the difference curve (plateau-tolerant).
    candidates = []
    for i in range(1, difference.size - 1):
        if difference[i] >= difference[i - 1] and difference[i] > difference[i + 1]:
            candidates.append(i)
    if not candidates:
        return []
    threshold_drop = sensitivity * np.mean(np.diff(xn))
    knees: list[Knee] = []
    for c_index, i in enumerate(candidates):
        threshold = difference[i] - threshold_drop
        end = candidates[c_index + 1] if c_index + 1 < len(candidates) else difference.size
        confirmed = any(difference[j] < threshold for j in range(i + 1, end))
        if not confirmed and end == difference.size:
            # Offline Kneedle: the data ended while the difference curve
            # was still above the trailing candidate's threshold.  With
            # the whole curve in hand there is no further local maximum
            # to displace it, so the candidate is declared a knee at
            # curve end rather than silently dropped.
            confirmed = True
        if confirmed:
            knees.append(
                Knee(x=float(x[i]), y=float(y[i]), index=i, difference=float(difference[i]))
            )
    return knees


def rightmost_knee(x, y, sensitivity: float = DEFAULT_SENSITIVITY) -> Knee | None:
    """The rightmost knee, which the paper selects as epsilon."""
    knees = detect_knees(x, y, sensitivity=sensitivity)
    return knees[-1] if knees else None


def smooth_ecdf(
    ecdf: Ecdf,
    smoothness: float | None = None,
    points: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth an ECDF with a cubic B-spline, per Algorithm 1.

    Returns ``(x, y)`` on an even grid; y is clipped to [0, 1] and made
    non-decreasing so the smoothed curve remains a valid CDF shape for
    knee detection.  *smoothness* is the spline's ``s`` parameter; the
    default scales with the grid size (scipy's recommended heuristic
    applied to CDF-scale data).
    """
    # Imported on first use: the spline module is most of the package's
    # import time, and only this function needs it.  Outside the try
    # below, so a failed import is not taken for a degenerate input.
    from scipy.interpolate import splev, splrep

    x, y = ecdf.grid(points)
    if smoothness is None:
        smoothness = DEFAULT_SMOOTHNESS
    if np.ptp(x) <= 0:
        return x, y
    try:
        tck = splrep(x, y, s=smoothness, k=3)
        smoothed = np.asarray(splev(x, tck), dtype=np.float64)
    except Exception:
        # Degenerate inputs (few distinct points): fall back to the raw grid.
        return x, y
    smoothed = np.clip(smoothed, 0.0, 1.0)
    smoothed = np.maximum.accumulate(smoothed)
    return x, smoothed
