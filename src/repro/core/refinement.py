"""Cluster refinement (paper Section III-F).

Two corrective passes over raw DBSCAN output:

- **Merging** repairs *overclassification* (one data type split across
  several clusters linked by sparse regions).  Two heuristics:
  Condition 1 — clusters very close by, with similar local
  epsilon-densities around their link segments; Condition 2 — clusters
  somewhat close by, with similar whole-cluster neighbor densities
  (minmed).  Thresholds 0.01 / 0.002 are the paper's empirical values.

- **Splitting** repairs *underclassification* (distinct functions such
  as enumeration constants absorbed into a diverse cluster): a cluster
  with extremely polarized value-occurrence counts — percent rank of
  the pivot ``F = ln |c|`` above 95 and count standard deviation above
  ``F`` — is split at the pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.membound import resolve_bound, rows_per_block
from repro.core.segments import UniqueSegment

EPSILON_RHO_THRESHOLD = 0.01
NEIGHBOR_DENSITY_THRESHOLD = 0.002
PERCENT_RANK_CUTOFF = 95.0

#: Condition 1's "very close-by" is additionally bounded by this multiple
#: of the DBSCAN epsilon.  The paper motivates merging with clusters
#: "linked via sparsely populated but detectable areas" — i.e., link
#: distances slightly beyond the density threshold.  Without the bound,
#: clusters with a large internal spread satisfy the mean-dissimilarity
#: closeness test for links far outside the density scale (observed for
#: short counters whose bytes occur as substrings of longer timestamps).
#: Documented deviation; see DESIGN.md.
LINK_CAP_FACTOR = 1.5


@dataclass(frozen=True)
class ClusterStats:
    """Per-cluster quantities shared by both merge conditions."""

    indices: np.ndarray
    mean_dissimilarity: float  # arithmetic mean of pairwise dissimilarities
    max_extent: float  # largest pairwise dissimilarity
    minmed: float  # median of each member's 1-NN distance within the cluster


def cluster_stats(
    values: np.ndarray,
    indices: np.ndarray,
    memory_bound_bytes: int | None = None,
) -> ClusterStats:
    size = len(indices)
    if size < 2:
        return ClusterStats(
            indices=indices, mean_dissimilarity=0.0, max_extent=0.0, minmed=0.0
        )
    # Under the memory bound the exact path runs: one vector of every
    # pairwise dissimilarity, in row-major upper-triangle order, whose
    # floating-point mean is pinned by the golden corpus.  Oversized
    # clusters switch to a blockwise scan that accumulates
    # sum/max/row-min without holding all the pairs.
    bound = resolve_bound(memory_bound_bytes)
    itemsize = values.dtype.itemsize
    if size * size * itemsize <= bound:
        pairwise = np.empty(size * (size - 1) // 2, dtype=values.dtype)
        nearest = np.empty(size, dtype=values.dtype)
        # One gathered row block at a time, in half of what the pairs
        # leave of the bound (the other half is headroom).
        block = rows_per_block(size * itemsize, bound - pairwise.nbytes, copies=2)
        offset = 0
        for start in range(0, size, block):
            stop = min(size, start + block)
            rows = values[np.ix_(indices[start:stop], indices)]
            for row in range(start, stop):
                width = size - 1 - row
                pairwise[offset : offset + width] = rows[row - start, row + 1 :]
                offset += width
            # Self-distances sit on the block's shifted diagonal.
            local = np.arange(stop - start)
            rows[local, start + local] = np.inf
            nearest[start:stop] = rows.min(axis=1)
            del rows  # before the next block is gathered
        return ClusterStats(
            indices=indices,
            mean_dissimilarity=float(pairwise.mean()),
            max_extent=float(pairwise.max()),
            minmed=float(np.median(nearest)),
        )
    block = rows_per_block(size * values.dtype.itemsize, memory_bound_bytes)
    total = 0.0
    max_extent = 0.0
    nearest = np.empty(size, dtype=np.float64)
    for start in range(0, size, block):
        stop = min(size, start + block)
        sub = np.asarray(
            values[np.ix_(indices[start:stop], indices)], dtype=np.float64
        )
        local = np.arange(stop - start)
        # The diagonal (self-distance zero) contributes nothing to the
        # off-diagonal sum and max; mask it to +inf only for the
        # per-row nearest-neighbor minimum.
        total += float(sub.sum())
        max_extent = max(max_extent, float(sub.max()))
        sub[local, start + local] = np.inf
        nearest[start:stop] = sub.min(axis=1)
    # Every unordered pair appears twice in the off-diagonal sum.
    mean = total / (size * (size - 1))
    return ClusterStats(
        indices=indices,
        mean_dissimilarity=mean,
        max_extent=max_extent,
        minmed=float(np.median(nearest)),
    )


def link_segments(
    values: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    memory_bound_bytes: int | None = None,
) -> tuple[int, int, float]:
    """Closest pair between clusters *a* and *b*: (index_a, index_b, d).

    The cross-block is scanned one row block at a time under the memory
    bound; strict ``<`` comparison between blocks preserves np.argmin's
    first-occurrence (row-major) tie-breaking, so the result is
    identical to a dense ``values[np.ix_(a, b)]`` argmin at any bound.
    """
    block = rows_per_block(len(b) * values.dtype.itemsize, memory_bound_bytes)
    best_d = math.inf
    best_row = best_col = 0
    for start in range(0, len(a), block):
        cross = values[np.ix_(a[start : start + block], b)]
        flat = int(np.argmin(cross))
        row, col = divmod(flat, cross.shape[1])
        d = float(cross[row, col])
        if d < best_d:
            best_d = d
            best_row, best_col = start + row, col
    return int(a[best_row]), int(b[best_col]), best_d


def _local_density(
    values: np.ndarray, link: int, members: np.ndarray, epsilon: float
) -> float | None:
    """Median dissimilarity from *link* to its cluster-mates within *epsilon*.

    None when no cluster-mate lies within epsilon — the local density is
    then undefined and the corresponding merge condition cannot hold.
    """
    others = members[members != link]
    if others.size == 0:
        return None
    dists = values[link, others]
    close = dists[dists <= epsilon]
    if close.size == 0:
        return None
    return float(np.median(close))


def should_merge(
    values: np.ndarray,
    stats_a: ClusterStats,
    stats_b: ClusterStats,
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD,
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD,
    link_cap: float = float("inf"),
    memory_bound_bytes: int | None = None,
) -> bool:
    """Evaluate merge Conditions 1 and 2 for one cluster pair."""
    link_a, link_b, d_link = link_segments(
        values, stats_a.indices, stats_b.indices, memory_bound_bytes
    )

    # Condition 1: very close by + similar local epsilon-density.
    if d_link <= link_cap and d_link < max(
        stats_a.mean_dissimilarity, stats_b.mean_dissimilarity
    ):
        smaller = stats_a if len(stats_a.indices) <= len(stats_b.indices) else stats_b
        epsilon = smaller.max_extent / 2.0
        rho_a = _local_density(values, link_a, stats_a.indices, epsilon)
        rho_b = _local_density(values, link_b, stats_b.indices, epsilon)
        if (
            rho_a is not None
            and rho_b is not None
            and abs(rho_a - rho_b) < eps_rho_threshold
        ):
            return True

    # Condition 2: somewhat close by + similar whole-cluster density.
    if stats_a.mean_dissimilarity > 0 and stats_b.mean_dissimilarity > 0:
        closeness = (
            stats_a.minmed / stats_a.mean_dissimilarity
            + stats_b.minmed / stats_b.mean_dissimilarity
        ) / 2.0
        if d_link < closeness and abs(stats_a.minmed - stats_b.minmed) < (
            neighbor_density_threshold
        ):
            return True
    return False


def merge_clusters(
    values: np.ndarray,
    clusters: list[np.ndarray],
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD,
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD,
    link_cap: float = float("inf"),
    memory_bound_bytes: int | None = None,
) -> list[np.ndarray]:
    """Merge all cluster pairs satisfying Condition 1 or 2 (transitively)."""
    count = len(clusters)
    if count < 2:
        return clusters
    stats = [cluster_stats(values, c, memory_bound_bytes) for c in clusters]
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            if find(i) == find(j):
                continue
            if should_merge(
                values,
                stats[i],
                stats[j],
                eps_rho_threshold=eps_rho_threshold,
                neighbor_density_threshold=neighbor_density_threshold,
                link_cap=link_cap,
                memory_bound_bytes=memory_bound_bytes,
            ):
                parent[find(j)] = find(i)
    merged: dict[int, list[np.ndarray]] = {}
    for i in range(count):
        merged.setdefault(find(i), []).append(clusters[i])
    return [np.sort(np.concatenate(group)) for group in merged.values()]


def percent_rank(counts: np.ndarray, value: float) -> float:
    """Roscoe's percent rank of *value* within *counts* (0..100)."""
    counts = np.asarray(counts, dtype=np.float64)
    below = np.count_nonzero(counts < value)
    equal = np.count_nonzero(counts == value)
    return 100.0 * (below + 0.5 * equal) / counts.size


def split_polarized(
    clusters: list[np.ndarray],
    segments: list[UniqueSegment],
    percent_rank_cutoff: float = PERCENT_RANK_CUTOFF,
) -> list[np.ndarray]:
    """Split clusters with extremely polarized value-occurrence counts."""
    result: list[np.ndarray] = []
    for cluster in clusters:
        counts = np.array([segments[i].count for i in cluster], dtype=np.float64)
        total_occurrences = float(counts.sum())
        if total_occurrences <= 1 or len(cluster) < 2:
            result.append(cluster)
            continue
        pivot = math.log(total_occurrences)
        sigma = float(counts.std())
        if percent_rank(counts, pivot) > percent_rank_cutoff and sigma > pivot:
            rare = cluster[counts <= pivot]
            frequent = cluster[counts > pivot]
            if rare.size and frequent.size:
                result.append(rare)
                result.append(frequent)
                continue
        result.append(cluster)
    return result


def refine(
    values: np.ndarray,
    clusters: list[np.ndarray],
    segments: list[UniqueSegment],
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD,
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD,
    merge: bool = True,
    split: bool = True,
    link_cap: float = float("inf"),
    memory_bound_bytes: int | None = None,
) -> list[np.ndarray]:
    """Full refinement: merge pass, then split pass (paper order)."""
    refined = clusters
    if merge:
        refined = merge_clusters(
            values,
            refined,
            eps_rho_threshold=eps_rho_threshold,
            neighbor_density_threshold=neighbor_density_threshold,
            link_cap=link_cap,
            memory_bound_bytes=memory_bound_bytes,
        )
    if split:
        refined = split_polarized(refined, segments)
    return refined
