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

from repro.core.matrix import pool_workers, run_blocks, scan_blocks
from repro.core.membound import resolve_bound, rows_per_block
from repro.core.segments import UniqueSegment
from repro.obs.tracer import get_tracer

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


class _ClusterScan:
    """One cluster's rows in the merge scan.

    Every row block of the cluster's members gathers, in one take, its
    rows' cells against the gathered *columns*: the cluster's own
    members first (on the exact path) and then every later cluster's
    members, group after group.  From the own part a block fills its
    rows' stretch of the pairwise vector (row-major upper triangle, the
    order that pins the mean) and their nearest-neighbor distances; from
    the later part, each row's minimum per later cluster
    (``np.minimum.reduceat`` over the column groups).  Blocks write
    disjoint rows, so they may run on threads.
    """

    def __init__(
        self,
        values: np.ndarray,
        clusters: list[np.ndarray],
        index: int,
        memory_bound_bytes: int | None,
    ) -> None:
        self.clusters = clusters
        self.index = index
        self.members = members = clusters[index]
        size = len(members)
        groups = len(clusters) - index - 1
        self.dtype = values.dtype
        itemsize = self.dtype.itemsize
        #: The exact path: a cluster of two or more whose size² cells fit
        #: the bound.
        self.exact = size >= 2 and size * size * itemsize <= resolve_bound(
            memory_bound_bytes
        )
        #: The stats off the exact path, taken now, before any scan holds
        #: memory: zero for a singleton, :func:`_blockwise_stats` for a
        #: larger cluster.
        self.stats = None
        if not self.exact:
            self.stats = (
                ClusterStats(members, 0.0, 0.0, 0.0)
                if size < 2
                else _blockwise_stats(values, members, memory_bound_bytes)
            )
        self.own = size if self.exact else 0
        width = self.own + sum(len(c) for c in clusters[index + 1 :])
        #: Rows to scan: none when there is nothing to gather.
        self.rows = size if width else 0
        #: Bytes the scan's arrays (gathered columns, group starts, row
        #: minima, and on the exact path the pairwise vector and nearest
        #: distances) hold from :meth:`allocate` to :meth:`finish`.
        self.held = (width + groups) * np.dtype(np.intp).itemsize
        self.held += size * groups * itemsize
        if self.exact:
            self.held += size * (size + 1) // 2 * itemsize
        #: A scanned row's temporaries: the row read, its gathered cells
        #: and its group minima.
        self.row_bytes = (values.shape[1] + width + groups) * itemsize
        #: The matrix cells the scan reads: each scanned row in full.
        self.cells = self.rows * values.shape[1]

    def allocate(self) -> None:
        """Build the gathered columns and the result arrays."""
        size = len(self.members)
        later = self.clusters[self.index + 1 :]
        self.columns = np.concatenate([self.members[: self.own], *later])
        sizes = np.array([len(c) for c in later], dtype=np.intp)
        #: Where each later cluster's columns start in the later part.
        self.starts = np.cumsum(sizes) - sizes
        if self.exact:
            self.pairwise = np.empty(size * (size - 1) // 2, dtype=self.dtype)
            self.nearest = np.empty(size, dtype=self.dtype)
        self.minima = np.empty((size, sizes.size), dtype=self.dtype)

    def scan(self, values: np.ndarray, begin: int, end: int) -> None:
        """Gather and reduce the rows ``[begin, end)`` of the cluster."""
        block = values[self.members[begin:end]].take(self.columns, axis=1)
        size = self.own
        if self.exact:
            offset = begin * (2 * size - begin - 1) // 2
            for row in range(begin, end):
                width = size - 1 - row
                self.pairwise[offset : offset + width] = block[row - begin, row + 1 : size]
                offset += width
            # Self-distances sit on the block's shifted diagonal.
            local = np.arange(end - begin)
            block[local, begin + local] = np.inf
            self.nearest[begin:end] = block[:, :size].min(axis=1)
        if self.starts.size:
            self.minima[begin:end] = np.minimum.reduceat(
                block[:, size:], self.starts, axis=1
            )

    def finish(self) -> tuple[ClusterStats, np.ndarray, np.ndarray]:
        """The cluster's stats and, per later cluster, its link's row in
        this cluster and the link distance.

        ``np.argmin`` down a later cluster's column of row minima finds
        the first row holding the cross block's minimum: the row of
        ``np.argmin``'s first occurrence in the row-major cross block.
        The results' arrays are released.
        """
        if self.exact:
            self.stats = ClusterStats(
                indices=self.members,
                mean_dissimilarity=float(self.pairwise.mean()),
                max_extent=float(self.pairwise.max()),
                minmed=float(np.median(self.nearest)),
            )
            del self.pairwise, self.nearest
        rows = np.argmin(self.minima, axis=0)
        distances = self.minima[rows, np.arange(rows.size)]
        del self.minima, self.columns, self.starts
        return self.stats, rows, distances


def _blockwise_stats(
    values: np.ndarray, indices: np.ndarray, memory_bound_bytes: int | None
) -> ClusterStats:
    """Stats of a cluster whose size² cells exceed the bound.

    Accumulates the sum, max and row minima one row block at a time
    without holding all the pairs; the blocks' float64 sums make the
    mean, so the block boundaries stay fixed.  ``np.ix_`` gathers just
    the block's cells (a row take first would copy its full rows, more
    than the bound counts).
    """
    size = len(indices)
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
        del sub  # before the next block is gathered
    # Every unordered pair appears twice in the off-diagonal sum.
    mean = total / (size * (size - 1))
    return ClusterStats(
        indices=indices,
        mean_dissimilarity=mean,
        max_extent=max_extent,
        minmed=float(np.median(nearest)),
    )


def _scan_clusters(
    values: np.ndarray,
    clusters: list[np.ndarray],
    memory_bound_bytes: int | None,
    workers: int,
) -> tuple[list[tuple[ClusterStats, np.ndarray, np.ndarray]], int]:
    """Every cluster's stats and link rows to the later clusters.

    Returns, per cluster, :meth:`_ClusterScan.finish`'s triple, and the
    threads the scan ran on.  Consecutive clusters are scanned together
    while their arrays (:attr:`_ClusterScan.held`) hold at most half the
    bound; their row blocks share the rest (:func:`repro.core.matrix.
    scan_blocks`) and run through :func:`repro.core.matrix.run_blocks`
    under the matrix's pool rule.
    """
    bound = resolve_bound(memory_bound_bytes)
    scans = [
        _ClusterScan(values, clusters, i, memory_bound_bytes)
        for i in range(len(clusters))
    ]
    batches: list[list[_ClusterScan]] = []
    held = 0
    for scan in scans:
        if not batches or held + scan.held > bound // 2:
            batches.append([])
            held = 0
        batches[-1].append(scan)
        held += scan.held
    results = []
    used = 1
    for batch in batches:
        room = bound - sum(scan.held for scan in batch)
        blocks = [
            (scan, begin, end)
            for scan in batch
            for begin, end in scan_blocks(0, scan.rows, scan.row_bytes, room, workers)
        ]
        threads = pool_workers(
            workers, len(blocks), sum(scan.cells for scan in batch)
        )
        for scan in batch:
            scan.allocate()
        run_blocks(lambda block: block[0].scan(values, *block[1:]), blocks, threads)
        results.extend(scan.finish() for scan in batch)
        used = max(used, threads)
    return results, used


def link_segments_reference(
    values: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    memory_bound_bytes: int | None = None,
) -> tuple[int, int, float]:
    """Closest pair between clusters *a* and *b*: (index_a, index_b, d).

    The per-pair oracle of the merge scan's links, for the tests only.
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
    link: tuple[int, int, float],
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD,
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD,
    link_cap: float = float("inf"),
) -> bool:
    """Evaluate merge Conditions 1 and 2 for one cluster pair.

    *link* is the pair's link segments and their distance, as
    :func:`link_segments_reference` gives them.
    """
    link_a, link_b, d_link = link

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


def _link(
    values: np.ndarray,
    clusters: list[np.ndarray],
    scanned: list[tuple[ClusterStats, np.ndarray, np.ndarray]],
    i: int,
    j: int,
) -> tuple[int, int, float]:
    """The link segments of clusters *i* < *j* from the scan's link rows.

    The link's column is the first minimum along its row, so the pair is
    ``np.argmin``'s first occurrence in the row-major cross block, as
    :func:`link_segments_reference` finds it.
    """
    _, rows, distances = scanned[i]
    link_a = int(clusters[i][rows[j - i - 1]])
    others = clusters[j]
    link_b = int(others[np.argmin(values[link_a, others])])
    return link_a, link_b, float(distances[j - i - 1])


def _joined(
    values: np.ndarray,
    clusters: list[np.ndarray],
    scanned: list[tuple[ClusterStats, np.ndarray, np.ndarray]],
    eps_rho_threshold: float,
    neighbor_density_threshold: float,
    link_cap: float,
) -> list[np.ndarray]:
    """The clusters after joining every pair that satisfies Condition 1
    or 2 (transitively), from :func:`_scan_clusters`' stats and links."""
    count = len(clusters)
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
                scanned[i][0],
                scanned[j][0],
                _link(values, clusters, scanned, i, j),
                eps_rho_threshold=eps_rho_threshold,
                neighbor_density_threshold=neighbor_density_threshold,
                link_cap=link_cap,
            ):
                parent[find(j)] = find(i)
    merged: dict[int, list[np.ndarray]] = {}
    for i in range(count):
        merged.setdefault(find(i), []).append(clusters[i])
    return [np.sort(np.concatenate(group)) for group in merged.values()]


def merge_clusters(
    values: np.ndarray,
    clusters: list[np.ndarray],
    eps_rho_threshold: float = EPSILON_RHO_THRESHOLD,
    neighbor_density_threshold: float = NEIGHBOR_DENSITY_THRESHOLD,
    link_cap: float = float("inf"),
    memory_bound_bytes: int | None = None,
    workers: int = 1,
) -> list[np.ndarray]:
    """Merge all cluster pairs satisfying Condition 1 or 2 (transitively).

    One scan (:func:`_scan_clusters`) takes every cluster's stats and
    its link rows to every later cluster, on up to *workers* threads
    (the resolved count; the matrix's pool rule decides).
    """
    if len(clusters) < 2:
        return clusters
    scanned, _ = _scan_clusters(values, clusters, memory_bound_bytes, workers)
    return _joined(
        values, clusters, scanned, eps_rho_threshold, neighbor_density_threshold, link_cap
    )


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
    workers: int = 1,
) -> list[np.ndarray]:
    """Full refinement: merge pass, then split pass (paper order).

    Runs in one ``refine`` span, which records the cluster counts, the
    cluster pairs the merge scan linked, the merges and splits made and
    the threads the scan ran on.
    """
    with get_tracer().span("refine", clusters_in=len(clusters)) as span:
        refined, used = clusters, 1
        if merge and len(clusters) > 1:
            # As :func:`merge_clusters`, keeping the scan's thread count.
            scanned, used = _scan_clusters(values, clusters, memory_bound_bytes, workers)
            refined = _joined(
                values,
                clusters,
                scanned,
                eps_rho_threshold,
                neighbor_density_threshold,
                link_cap,
            )
        merged = len(refined)
        if split:
            refined = split_polarized(refined, segments)
        count = len(clusters)
        span.set(
            clusters_out=len(refined),
            workers=used,
            pairs=count * (count - 1) // 2 if merge else 0,
            merges=count - merged,
            splits=len(refined) - merged,
        )
    return refined
