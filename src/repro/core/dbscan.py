"""DBSCAN over a precomputed dissimilarity matrix (Ester et al., 1996).

The paper chooses DBSCAN because it needs neither a target cluster
count nor shape assumptions and treats outliers as noise; its
parameters (epsilon, min_samples) come from
:mod:`repro.core.autoconf`.  A point's epsilon-neighborhood includes
the point itself (the scikit-learn convention, which the original
implementation relied on).

:func:`dbscan` first builds every epsilon-neighborhood as one compact
CSR adjacency (``indptr``/``indices``, 4 bytes per epsilon-edge),
scanning the matrix one row block at a time under a configurable memory
bound, so the only n×n-shaped temporary that ever exists is one block's
boolean mask.  One vectorised labelling then turns the adjacency into
labels.  Core points have at least *min_samples* neighbors (the CSR row
lengths, or the sum of their weights).  Clusters are the connected components of
the core points under the epsilon relation
(:func:`scipy.sparse.csgraph.connected_components`), numbered by their
lowest core index.  A border point (not core, but within epsilon of a
core) takes the lowest cluster id among its core neighbors; everything
else is noise.

These are exactly the labels of the textbook breadth-first expansion,
kept as :func:`dbscan_reference`, the oracle the tests pin
:func:`dbscan` to.  Its outer loop visits points in index order, so it
seeds each cluster at the lowest core index of a component not yet
labelled; and a border point keeps the first cluster that reaches it,
which is the one with the lowest id.  Both rely on the epsilon relation
being symmetric, as every dissimilarity matrix in this package is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.membound import rows_per_block
from repro.obs.tracer import get_tracer

NOISE = -1
UNVISITED = -2


@dataclass(frozen=True)
class DbscanResult:
    """Cluster labels per point: 0..m-1 for clusters, -1 for noise."""

    labels: np.ndarray
    epsilon: float
    min_samples: int

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size and self.labels.max() >= 0 else 0

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.labels == cluster)[0]

    @property
    def noise(self) -> np.ndarray:
        return np.nonzero(self.labels == NOISE)[0]

    def clusters(self) -> list[np.ndarray]:
        return [self.members(c) for c in range(self.cluster_count)]


def _validated(
    distances: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    distances = np.asarray(distances)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError(f"need a square matrix, got {distances.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        count = distances.shape[0]
        if weights.shape != (count,):
            raise ValueError(f"weights shape {weights.shape} != ({count},)")
    return distances, weights


def _neighborhoods(
    distances: np.ndarray,
    epsilon: float,
    weights: np.ndarray | None,
    block: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR epsilon-adjacency in row blocks: (indptr, indices, neighbor_counts).

    Column indices come out of ``np.flatnonzero`` in ascending order per
    row and are stored as int32 (a matrix never has 2**31 rows).
    Unweighted neighbor counts are the row lengths; weighted ones are
    the reference's ``mask @ weights`` contraction.
    """
    count = distances.shape[0]
    indptr = np.zeros(count + 1, dtype=np.int64)
    index_chunks: list[np.ndarray] = [np.empty(0, np.int32)]
    weight_chunks: list[np.ndarray] = [np.empty(0, np.float64)]
    for start in range(0, count, block):
        stop = min(count, start + block)
        within = distances[start:stop] <= epsilon
        if weights is not None:
            weight_chunks.append(within @ weights)
        indptr[start + 1 : stop + 1] = np.count_nonzero(within, axis=1)
        # Flat positions within the block, reduced in place to columns.
        flat = np.flatnonzero(within)
        index_chunks.append(np.remainder(flat, count, out=flat).astype(np.int32))
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(index_chunks)
    counts = np.diff(indptr) if weights is None else np.concatenate(weight_chunks)
    return indptr, indices, counts


def _labels(indptr: np.ndarray, indices: np.ndarray, is_core: np.ndarray) -> np.ndarray:
    """Cluster labels from the epsilon-adjacency and the core mask."""
    count = is_core.size
    core = np.flatnonzero(is_core)
    if not core.size:
        return np.full(count, NOISE, dtype=np.int64)
    rows = np.repeat(np.arange(count, dtype=np.int32), np.diff(indptr))
    core_row = is_core[rows]
    core_column = is_core[indices]
    # The core-core edges, in row order; every other point is an
    # isolated node.
    inner = core_row & core_column
    inner_rows = rows[inner]
    graph = csr_matrix(
        (
            # The search reads only the graph's structure: a zero-stride
            # view stands in for its edge weights without allocating them.
            np.broadcast_to(np.float64(1.0), inner_rows.size),
            indices[inner],
            np.searchsorted(inner_rows, np.arange(count + 1, dtype=np.int32)),
        ),
        shape=(count, count),
    )
    # The relation is symmetric, so the strong components are the
    # undirected ones; the directed search skips scipy's transposed copy.
    _, component = connected_components(graph, directed=True, connection="strong")
    # ``core`` ascends, so each component's first position in it is its
    # lowest core index; the clusters are numbered in that order.
    _, first, inverse = np.unique(
        component[core], return_index=True, return_inverse=True
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    # Non-core points start at the sentinel ``count`` (above every id);
    # a border point drops to the lowest id among its core neighbors.
    cluster = np.full(count, count, dtype=np.int64)
    cluster[core] = rank[inverse]
    border = core_column & ~core_row
    np.minimum.at(cluster, rows[border], cluster[indices[border]])
    cluster[cluster == count] = NOISE
    return cluster


def dbscan(
    distances: np.ndarray,
    epsilon: float,
    min_samples: int,
    weights: np.ndarray | None = None,
    memory_bound_bytes: int | None = None,
) -> DbscanResult:
    """Run DBSCAN on a square, symmetric distance matrix.

    Points with at least *min_samples* neighbors within *epsilon*
    (including themselves) are core points; clusters are the connected
    components of core points under the epsilon relation, plus border
    points attached to the lowest-numbered cluster next to them — the
    labels of :func:`dbscan_reference` (see the module docstring).

    *weights* gives each point a multiplicity for the density test (the
    scikit-learn ``sample_weight`` semantics).  The clustering pipeline
    deduplicates segment values for the distance computation but passes
    each value's occurrence count here, so a value repeated across many
    messages still forms a density core — exactly as if the duplicates
    had participated at mutual distance zero.

    The epsilon-adjacency is built in row blocks that keep their
    temporaries under *memory_bound_bytes*; the labels do not depend on
    the bound.
    """
    distances, weights = _validated(distances, weights)
    count = distances.shape[0]
    with get_tracer().span("dbscan.neighborhoods", rows=count) as span:
        # Working set per row: the distance row read, its boolean mask,
        # the int64 flat positions and their int32 columns (worst case
        # one per cell), and the float64 cast of the mask for a
        # weighted count.
        row_bytes = count * (
            distances.dtype.itemsize + 1 + 8 + 4 + (8 if weights is not None else 0)
        )
        block = rows_per_block(row_bytes, memory_bound_bytes)
        indptr, indices, neighbor_counts = _neighborhoods(
            distances, epsilon, weights, block
        )
        is_core = neighbor_counts >= min_samples
        span.set(edges=int(indices.size), core=int(np.count_nonzero(is_core)))
    labels = _labels(indptr, indices, is_core)
    return DbscanResult(labels=labels, epsilon=epsilon, min_samples=min_samples)


def dbscan_reference(
    distances: np.ndarray,
    epsilon: float,
    min_samples: int,
    weights: np.ndarray | None = None,
) -> DbscanResult:
    """Textbook DBSCAN, one point at a time: :func:`dbscan`'s oracle.

    Expands breadth-first from each unvisited core point in index order
    over the dense ``distances <= epsilon`` boolean matrix; a border
    point keeps the first cluster that reaches it.  Only the tests and
    ``benchmarks/bench_pipeline.py`` call it.
    """
    distances, weights = _validated(distances, weights)
    count = distances.shape[0]
    if weights is None:
        weights = np.ones(count, dtype=np.float64)
    within = distances <= epsilon
    neighbor_counts = within @ weights  # includes self (diagonal zero)

    def row(i: int) -> np.ndarray:
        return np.nonzero(within[i])[0]

    is_core = neighbor_counts >= min_samples
    labels = np.full(count, UNVISITED, dtype=np.int64)
    cluster = 0
    for point in range(count):
        if labels[point] != UNVISITED:
            continue
        if not is_core[point]:
            labels[point] = NOISE
            continue
        labels[point] = cluster
        queue = deque(row(point).tolist())
        while queue:
            neighbor = queue.popleft()
            if labels[neighbor] == NOISE:
                labels[neighbor] = cluster  # border point reclaimed from noise
            if labels[neighbor] != UNVISITED:
                continue
            labels[neighbor] = cluster
            if is_core[neighbor]:
                queue.extend(row(neighbor).tolist())
        cluster += 1
    return DbscanResult(labels=labels, epsilon=epsilon, min_samples=min_samples)
