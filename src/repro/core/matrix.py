"""Pairwise dissimilarity matrix over unique segments (paper Section III-C).

Builds the full symmetric matrix **D** used as DBSCAN's precomputed
metric and as the source of the k-NN distance distributions for the
epsilon auto-configuration.  Computation is grouped by segment length so
that equal-length pairs use the plain normalized Canberra distance and
unequal-length pairs use the sliding/penalty extension.

Every cell is filled by the vectorized **binned** kernel (see
:mod:`repro.core.canberra`): Canberra terms come from a byte-term
lookup table (summed plane by plane for segments narrower than
``NUMPY_PAIRWISE_SUM_MIN`` bytes), an equal-length bin computes full
rows of itself through the one rectangular kernel (a wider bin, whose
cells cost more than a mirrored write, its upper band and the band's
mirror) and writes each cell once, and unequal lengths run through
window tables — the distinct width-``m`` windows of the longer
segments, each one's mean against a short row computed once, with
every long segment's sliding minimum gathered from its own window
indices.  The per-pair reference oracle
(:func:`repro.core.canberra.dissimilarity_matrix_reference`) is not a
runtime option: parity tests and the kernel microbenchmarks call it
directly to pin the kernel to its exact bytes.

One engine computes cells, the **row-tile queue**.  A build lists the
tasks covering the cells with at least one new segment
(:func:`_append_tasks`; a batch build is an append onto an empty
matrix): per length an equal-length square and rectangle, and one
cross-length task per short length, row side and window-table group,
whose longer segments are capped at ``CHUNK_CELL_BUDGET // 4`` window
bytes so each tile can build its table itself.  It sub-tiles every
task along its rows to the kernel's ~160 MB temporary budget, and runs
the tiles either inline — one worker, or fewer segments than
:attr:`MatrixBuildOptions.parallel_threshold` — or longest-processing-
time-first on a :class:`concurrent.futures.ThreadPoolExecutor`.  The
numpy LUT gathers release the GIL, so worker threads share the uint8
blocks and the output matrix (RAM or memmap) zero-copy: each tile is
written straight into its disjoint cells of the output — no result
shipping, no pickling.  Tile boundaries are deterministic (worker-count
independent) and every cell is the same reduction either way, so the
bytes are identical regardless of worker count, completion order, or
whether the matrix was built at once or grown by appends.

A content-addressed ``.npz`` on disk (:mod:`repro.core.matrixcache`)
short-circuits the whole computation for a previously seen segment set
+ penalty factor.  :class:`BuildStats` on the returned matrix records
which path ran and how much work it did; how long it took is the
``matrix.build`` / ``matrix.append`` span's, like every other layer's.
Worker threads are the one place that times its own work: a thread
cannot reach the caller's tracer, so each tile measures itself and the
main thread attaches it as a ``matrix.bin`` span.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import matrixcache
from repro.core.canberra import (
    CHUNK_CELL_BUDGET,
    DEFAULT_PENALTY_FACTOR,
    NUMPY_PAIRWISE_SUM_MIN,
    cross_length_rows,
    equal_length_cross_rows,
    window_table,
)
from repro.core.membound import divide_bound, rows_per_block
from repro.core.segments import UniqueSegment
from repro.errors import ComputeError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

logger = logging.getLogger(__name__)

FAULTS_METRIC = "repro_matrix_faults_total"

#: Matrix value dtypes (``MatrixBuildOptions.dtype``): float64 is the
#: bit-exact reference; float32 halves resident memory for large n at
#: ~1e-7 relative rounding on each value.
DTYPE_FLOAT64 = "float64"
DTYPE_FLOAT32 = "float32"
DTYPES = (DTYPE_FLOAT64, DTYPE_FLOAT32)

#: Matrix storage modes (``MatrixBuildOptions.storage``): "ram" is a
#: plain in-heap array; "memmap" backs the values with an unlinked
#: temporary file so the OS can evict cold pages under pressure.
STORAGE_RAM = "ram"
STORAGE_MEMMAP = "memmap"
STORAGES = (STORAGE_RAM, STORAGE_MEMMAP)

#: Most short rows in one "cross" tile.  A cross task spans every longer
#: length of its short length, so its rows are split into tiles the
#: threaded schedule can balance.  Each tile rebuilds the task's window
#: table (~100 ns a window) and then gathers at least one cell per
#: window and row, so tiles this tall keep the rebuilds a small share.
CROSS_TILE_ROWS = 128

#: Most rows one k-NN selection block takes (below what
#: ``memory_bound_bytes`` admits).  The selection copies its block, so
#: short blocks keep the copy cache-resident and out of the peak RSS: on
#: 4268 NTP segments, 64-256-row blocks selected 1.6x faster than one
#: block of every row the default bound admits.
KNN_BLOCK_ROWS = 256

#: Growth factor of :class:`AppendableMatrix`'s backing capacity.
RESERVE_FACTOR = 1.5

_FAULTS_HELP = (
    "Failed matrix tiles (kind: bin_error).  There is no retry: a tile "
    "failure fails the build with a ComputeError naming its bin."
)


def _count_fault(kind: str) -> None:
    get_metrics().counter(FAULTS_METRIC, help=_FAULTS_HELP).inc(kind=kind)


@dataclass(frozen=True)
class MatrixBuildOptions:
    """Execution knobs for :meth:`DissimilarityMatrix.build`.

    The defaults are safe for library use: auto worker count (inline on
    single-core machines and below the parallel threshold) and no disk
    cache.  The CLIs enable the cache and expose every knob as a flag.
    """

    #: Parallel worker count.  The convention is uniform across the
    #: library and both CLIs: ``None`` ⇒ one worker per CPU core,
    #: ``0`` ⇒ serial (an explicit opt-out, same as ``--workers 0``),
    #: ``N >= 1`` ⇒ exactly N workers.  Negative values are rejected.
    workers: int | None = None
    #: Reuse/persist matrices in the content-addressed on-disk cache.
    use_cache: bool = False
    #: Cache location; None means ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
    cache_dir: str | Path | None = None
    #: Minimum unique-segment count before a thread pool pays for
    #: itself; below it the tiles run inline regardless of ``workers``.
    parallel_threshold: int = 512
    #: Value dtype: "float64" (bit-exact reference, default) or
    #: "float32" (half the resident matrix memory for large traces;
    #: each value rounds once from the float64 tile result).
    dtype: str = DTYPE_FLOAT64
    #: Value storage: "ram" (default) or "memmap" (values live in an
    #: unlinked temporary file, so cold pages are reclaimable and the
    #: matrix survives traces larger than physical memory).
    storage: str = STORAGE_RAM

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(
                f"unknown matrix dtype {self.dtype!r} (choices: {DTYPES})"
            )
        if self.storage not in STORAGES:
            raise ValueError(
                f"unknown matrix storage {self.storage!r} (choices: {STORAGES})"
            )
        if self.workers is not None and int(self.workers) < 0:
            raise ValueError(
                f"workers must be >= 0 (0 = serial) or None (= all cores), "
                f"got {self.workers}"
            )

    def effective_workers(self) -> int:
        """Resolved worker count (>= 1).

        ``None`` resolves to ``os.cpu_count()``; ``0`` resolves to 1 —
        it *means* serial (the ``--workers 0`` convention shared by both
        CLIs), and the build honors that because the thread pool only
        engages when the resolved count exceeds one.
        """
        if self.workers is None:
            return os.cpu_count() or 1
        return int(self.workers) or 1


@dataclass
class BuildStats:
    """Observability record for one matrix build."""

    unique_count: int = 0
    #: "serial", "parallel", "cache", or "append" — the path that
    #: produced values (serial = tiles ran inline, parallel = on the
    #: thread pool, append = incremental growth of an existing matrix;
    #: only the new cells were computed).
    backend: str = "serial"
    #: "float64" or "float32" — the stored value dtype.
    dtype: str = DTYPE_FLOAT64
    #: "ram" or "memmap" — where the values live.
    storage: str = STORAGE_RAM
    workers: int = 1
    #: Independent work items: one "same" bin per new length, one
    #: "eqcross" rectangle per length with old and new segments, and one
    #: "cross" task per short length, row side and window-table group
    #: (see :func:`_append_tasks`).
    task_count: int = 0
    #: Tiles scheduled on the thread pool (bins sub-tiled to the
    #: kernel's temporary budget); 0 when the tiles ran inline.
    tile_count: int = 0
    #: Unique segment pairs computed by the vectorized (binned) kernel.
    pairs_vectorized: int = 0
    cache_hit: bool = False
    cache_key: str | None = None


@dataclass(frozen=True, eq=False)
class _BinTask:
    """One independent work item: the cells between two segment groups.

    *kind* is "same" (one equal-length group against itself; both sides
    carry the same block and indices), "eqcross" (two disjoint groups of
    one length — an append's new-vs-old rectangle) or "cross" (segments
    of one short length against a group of longer segments, whose
    window table each of the task's tiles builds).  The blocks are the
    groups' raw ``(count, length)`` uint8 rows — *blocks_b* holds one
    block per long length for "cross", the one column block otherwise;
    *rows* and *cols* are the global matrix indices they scatter to, so
    a task's row and column sets may come from different segment
    generations.
    """

    kind: str
    block_a: np.ndarray
    blocks_b: tuple[np.ndarray, ...]
    rows: list[int]
    cols: list[int]

    @property
    def lengths(self) -> tuple[int, int]:
        """The row length and the longest column length."""
        return self.block_a.shape[1], max(block.shape[1] for block in self.blocks_b)

    @property
    def band(self) -> bool:
        """Whether a "same" task's tiles compute only their upper band.

        Narrower than ``NUMPY_PAIRWISE_SUM_MIN`` bytes, a plane-sum cell
        costs less than a mirrored write, so tiles compute full rows; a
        wider, gathered cell costs more, so they compute their rows from
        their first row on and write the part right of their rows again,
        transposed.
        """
        return self.kind == "same" and self.block_a.shape[1] >= NUMPY_PAIRWISE_SUM_MIN

    @property
    def window_cells(self) -> int:
        """Bytes of the width-``len_a`` windows of every column segment."""
        m = self.block_a.shape[1]
        return sum(
            block.shape[0] * (block.shape[1] - m + 1) * m for block in self.blocks_b
        )


def _length_bins(
    segments: list[UniqueSegment], offset: int = 0
) -> dict[int, tuple[list[int], np.ndarray]]:
    """Per segment length: the global indices and one (count, length) block.

    Segment *i* gets matrix index ``offset + i``.  Rows are decoded with
    ``np.frombuffer`` over the concatenated raw bytes — no per-byte
    Python list round-trip — and kept as raw uint8 so the binned kernel
    can gather Canberra terms straight from the byte-term lookup table.
    """
    by_length: dict[int, list[int]] = {}
    for index, segment in enumerate(segments):
        by_length.setdefault(segment.length, []).append(index)
    bins = {}
    for length, indices in by_length.items():
        raw = b"".join(segments[i].data for i in indices)
        block = np.frombuffer(raw, dtype=np.uint8).reshape(len(indices), length)
        bins[length] = ([offset + i for i in indices], block)
    return bins


def _cross_tasks(
    short: tuple[list[int], np.ndarray],
    longs: list[tuple[list[int], np.ndarray]],
) -> list[_BinTask]:
    """"cross" tasks of one short side against the longer sides *longs*.

    The longer segments are cut, in order, into consecutive groups of at
    most ``CHUNK_CELL_BUDGET // 4`` window bytes (a segment whose own
    windows exceed that forms a group alone), one task each: a tile
    builds its task's window table, so the cap bounds every table
    whatever the trace's length spread.
    """
    m = short[1].shape[1]
    cap = CHUNK_CELL_BUDGET // 4
    tasks = []
    blocks: list[np.ndarray] = []
    cols: list[int] = []
    cells = 0
    for indices, block in longs:
        per_segment = (block.shape[1] - m + 1) * m
        start = 0
        while start < len(indices):
            if blocks and cells + per_segment > cap:
                tasks.append(_BinTask("cross", short[1], tuple(blocks), short[0], cols))
                blocks, cols, cells = [], [], 0
            stop = min(len(indices), start + max(1, (cap - cells) // per_segment))
            blocks.append(block[start:stop])
            cols.extend(indices[start:stop])
            cells += (stop - start) * per_segment
            start = stop
    if blocks:
        tasks.append(_BinTask("cross", short[1], tuple(blocks), short[0], cols))
    return tasks


def _append_tasks(
    old_bins: dict[int, tuple[list[int], np.ndarray]],
    new_bins: dict[int, tuple[list[int], np.ndarray]],
) -> list[_BinTask]:
    """Work items covering exactly the cells with a new segment on a side.

    Per length over the union of old and new lengths, emit only the
    blocks with at least one *new* segment on a side: the new-vs-new
    "same" square, the new-vs-old "eqcross" rectangle, and two
    "cross" sides against the longer lengths — the new short rows
    against every longer segment, old and new, and the old short rows
    against the new longer ones (:func:`_cross_tasks`).  Old-vs-old
    cells already hold their final values and are never touched, which
    is what keeps concurrent tile writes disjoint from the live matrix
    view.  A batch build passes no old bins, so it is the same list an
    append onto an empty matrix computes — every cell goes through the
    same kernel reduction either way, which makes an appended matrix
    bit-identical to a from-scratch build.
    """
    tasks = []
    lengths = sorted(set(old_bins) | set(new_bins))
    for li, length in enumerate(lengths):
        old = old_bins.get(length)
        new = new_bins.get(length)
        longer = lengths[li + 1 :]
        if new:
            tasks.append(_BinTask("same", new[1], (new[1],), new[0], new[0]))
        if new and old:
            tasks.append(_BinTask("eqcross", new[1], (old[1],), new[0], old[0]))
        if new:
            every_longer = [
                bins[n] for n in longer for bins in (old_bins, new_bins) if n in bins
            ]
            tasks.extend(_cross_tasks(new, every_longer))
        if old:
            new_longer = [new_bins[n] for n in longer if n in new_bins]
            tasks.extend(_cross_tasks(old, new_longer))
    return tasks


def _task_tiles(tasks: list[_BinTask]) -> list[tuple[_BinTask, int, int, int]]:
    """The engine's work queue: ``(task, row_start, row_stop, cost)``.

    Each task is sub-tiled along its rows so one tile's gather stays
    inside the kernel's fixed temporary budget
    (:data:`repro.core.canberra.CHUNK_CELL_BUDGET`, ~160 MB of float64
    cells; a "cross" row costs its group's window bytes), and a "cross"
    tile takes at most :data:`CROSS_TILE_ROWS` rows.  Boundaries depend
    only on the task shapes, never on the worker count, so the queue is
    deterministic; *cost* estimates the tile's gather cells (for
    "cross", as if no window repeated) and drives the threaded
    longest-processing-time-first schedule.
    """
    tiles = []
    for task in tasks:
        rows, m = task.block_a.shape
        if task.kind == "cross":
            cells_per_row = max(1, task.window_cells)
        else:
            cells_per_row = max(1, len(task.cols) * m)
        tile_rows = max(1, CHUNK_CELL_BUDGET // cells_per_row)
        if task.kind == "cross":
            tile_rows = min(tile_rows, CROSS_TILE_ROWS)
        for start in range(0, rows, tile_rows):
            stop = min(rows, start + tile_rows)
            if task.band:
                cost = (stop - start) * (rows - start) * m
            else:
                cost = (stop - start) * cells_per_row
            tiles.append((task, start, stop, cost))
    return tiles


def _bin_attributes(task: _BinTask, row_start: int, row_stop: int) -> dict:
    """The ``matrix.bin`` span attributes of one tile known before it runs.

    *cells* counts the matrix cells the tile writes: its rows' cells,
    plus their mirror for the kinds whose columns are other segments
    (for a band tile, its rows from its first row on, plus the mirror of
    the part right of its own rows).  *pairs* counts the distinct
    segment pairs, giving a "same" tile the pairs of its rows with the
    rows after them, so both sum exactly over a build's tiles (to
    ``n * n`` cells and ``n * (n - 1) / 2`` pairs).
    """
    rows = row_stop - row_start
    if task.kind == "same":
        count = task.block_a.shape[0]
        if task.band:
            cells = rows * (2 * count - row_start - row_stop)
        else:
            cells = rows * count
        pairs = rows * (2 * count - row_start - row_stop - 1) // 2
    else:
        cells = 2 * rows * len(task.cols)
        pairs = rows * len(task.cols)
    len_a, len_b = task.lengths
    return {
        "kind": task.kind,
        "len_a": len_a,
        "len_b": len_b,
        "pairs": pairs,
        "cells": cells,
        "tile": f"{row_start}:{row_stop}",
    }


def _compute_tile_into(
    values: np.ndarray,
    task: _BinTask,
    row_start: int,
    row_stop: int,
    penalty_factor: float,
    cells_budget: int,
) -> dict:
    """Compute one tile and write it (plus its mirror) into *values*.

    The engine's unit of work, inline or on a worker thread.  Tiles of
    one build write disjoint cells of *values*, each cell once: a "same"
    tile owns full rows of its equal-length bin (a band tile, its rows
    from its first row on and the transpose of the part right of its
    own rows), and an "eqcross" or "cross" tile owns its rows' cells
    and their transposes, so concurrent workers never write the same
    cell.  A "cross" tile builds its task's window table itself, so
    only in-flight tiles hold one; it returns the table's ``windows``
    and ``unique_windows`` counts for its ``matrix.bin`` span (other
    kinds return no counts).
    """
    table_counts = {}
    first = row_start if task.band else 0
    if task.kind == "cross":
        table = window_table(task.blocks_b, task.block_a.shape[1])
        tile = cross_length_rows(
            task.block_a,
            table,
            row_start,
            row_stop,
            penalty_factor=penalty_factor,
            cells_budget=cells_budget,
        )
        table_counts = {
            "windows": table.index.size,
            "unique_windows": table.windows.shape[0],
        }
    else:
        tile = equal_length_cross_rows(
            task.block_a,
            task.blocks_b[0][first:],
            row_start,
            row_stop,
            cells_budget=cells_budget,
        )
    rows = task.rows[row_start:row_stop]
    cols = task.cols[first:]
    values[np.ix_(rows, cols)] = tile
    if task.kind != "same" or task.band:
        # A band tile's first columns are its own rows, written above.
        skip = row_stop - row_start if task.band else 0
        values[np.ix_(cols[skip:], rows)] = tile[:, skip:].T
    return table_counts


def _bin_error(
    tile: tuple[_BinTask, int, int, int], mode: str, drained: int, error: Exception
) -> ComputeError:
    """The one error a failed tile raises, naming its bin."""
    task, row_start, row_stop, _ = tile
    len_a, len_b = task.lengths
    return ComputeError(
        f"matrix bin ({len_a}, {len_b}) failed in the {mode} build "
        f"(tile rows [{row_start}, {row_stop}), {drained} queued tiles "
        f"drained): {error}"
    )


def _run_tile(
    values: np.ndarray,
    tile: tuple[_BinTask, int, int, int],
    penalty_factor: float,
    cells_budget: int,
    enqueued: float,
) -> dict:
    """Thread worker wrapper: compute + measure one tile.

    Returns the observability record the main thread turns into a
    ``matrix.bin`` span — workers never touch the tracer or metrics
    registry themselves (both are bound via :mod:`contextvars`, which
    executor threads do not inherit, and neither is thread-safe).
    """
    task, row_start, row_stop, _ = tile
    started = time.perf_counter()
    started_unix = time.time()
    table_counts = _compute_tile_into(
        values, task, row_start, row_stop, penalty_factor, cells_budget
    )
    return {
        "worker": threading.current_thread().name,
        "queue_seconds": started - enqueued,
        "wall_seconds": time.perf_counter() - started,
        "started_unix": started_unix,
        "table_counts": table_counts,
    }


def _run_inline(
    tiles: list[tuple[_BinTask, int, int, int]],
    values: np.ndarray,
    penalty_factor: float,
) -> None:
    """Run the tile queue in order on the calling thread.

    Each tile gets a ``matrix.bin`` child span; a tile that raises
    fails the build with the same :class:`ComputeError` the threaded
    scheduler raises, and the tiles after it are never started.
    """
    tracer = get_tracer()
    for position, tile in enumerate(tiles):
        task, row_start, row_stop, _ = tile
        with tracer.span("matrix.bin", **_bin_attributes(*tile[:3])) as span:
            try:
                table_counts = _compute_tile_into(
                    values, task, row_start, row_stop, penalty_factor, CHUNK_CELL_BUDGET
                )
            except Exception as error:
                _count_fault("bin_error")
                drained = len(tiles) - position - 1
                raise _bin_error(tile, "inline", drained, error) from error
            span.set(**table_counts)


def _run_threaded(
    tiles: list[tuple[_BinTask, int, int, int]],
    values: np.ndarray,
    penalty_factor: float,
    workers: int,
) -> None:
    """Run the tile queue on a thread pool, writing into *values*.

    Tiles are submitted longest-processing-time-first (by estimated
    gather cells), so the big bins start immediately and the small ones
    backfill — the classic LPT bound keeps the makespan within 4/3 of
    optimal.  Workers share the uint8 blocks and the output matrix
    zero-copy; the kernel's temporary budget is divided across workers
    (:func:`repro.core.membound.divide_bound`) so aggregate peak memory
    matches the inline run's.

    A tile that raises fails the whole build with a
    :class:`ComputeError` naming its bin: threads cannot be killed, so
    the scheduler cancels every not-yet-started tile, drains the ones
    already running, and only then raises.
    """
    # LPT: largest estimated tile first, index as deterministic tie-break.
    order = sorted(range(len(tiles)), key=lambda i: (-tiles[i][3], i))
    cells_budget = divide_bound(CHUNK_CELL_BUDGET, workers)
    tracer = get_tracer()
    futures = {}
    failure: tuple[tuple[_BinTask, int, int, int], Exception] | None = None
    drained = 0
    executor = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-matrix"
    )
    try:
        for i in order:
            tile = tiles[i]
            futures[
                executor.submit(
                    _run_tile,
                    values,
                    tile,
                    penalty_factor,
                    cells_budget,
                    time.perf_counter(),
                )
            ] = tile
        for future in as_completed(futures):
            tile = futures[future]
            if future.cancelled():
                # CancelledError is a BaseException; count the tile as
                # drained instead of letting result() raise it.
                drained += 1
                continue
            try:
                record = future.result()
            except Exception as error:
                _count_fault("bin_error")
                if failure is None:
                    failure = (tile, error)
                    # Threads cannot be killed: cancel everything still
                    # queued, let in-flight tiles finish, then raise.
                    for pending in futures:
                        pending.cancel()
                continue
            tracer.record(
                "matrix.bin",
                wall_seconds=record["wall_seconds"],
                started_unix=record["started_unix"],
                worker=record["worker"],
                queue_seconds=round(record["queue_seconds"], 6),
                **_bin_attributes(*tile[:3]),
                **record["table_counts"],
            )
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    if failure is not None:
        tile, error = failure
        raise _bin_error(tile, "threaded", drained, error) from error


def _compute_new_cells(
    values: np.ndarray,
    old_segments: list[UniqueSegment],
    new_segments: list[UniqueSegment],
    penalty_factor: float,
    options: MatrixBuildOptions,
    stats: BuildStats,
) -> None:
    """Fill every cell of *values* with a new segment on at least one side.

    The single compute path behind :meth:`DissimilarityMatrix.build`
    (no old segments) and :meth:`AppendableMatrix.append`.  The new
    segments take the indices after the old ones.  The tile queue runs
    on the thread pool when more than one worker is requested and the
    grown matrix reaches :attr:`MatrixBuildOptions.parallel_threshold`
    segments, inline otherwise; *stats* records which, with the work
    counts.
    """
    old_count = len(old_segments)
    count = old_count + len(new_segments)
    tasks = _append_tasks(
        _length_bins(old_segments), _length_bins(new_segments, offset=old_count)
    )
    tiles = _task_tiles(tasks)
    stats.task_count = len(tasks)

    workers = options.effective_workers()
    if workers > 1 and tiles and count >= options.parallel_threshold:
        _run_threaded(tiles, values, penalty_factor, workers)
        stats.workers = workers
        stats.tile_count = len(tiles)
    else:
        _run_inline(tiles, values, penalty_factor)
    # The tasks cover each pair with a new segment exactly once.
    stats.pairs_vectorized = count * (count - 1) // 2 - old_count * (old_count - 1) // 2


def _knn_block_rows(width: int, itemsize: int, memory_bound_bytes: int | None) -> int:
    """Rows per k-NN selection block of *width*-wide source rows.

    A row costs its source row plus the partition's copy of it.
    """
    return min(
        KNN_BLOCK_ROWS, rows_per_block(width * itemsize, memory_bound_bytes, copies=2)
    )


def _smallest_sorted(block: np.ndarray, count: int) -> np.ndarray:
    """Each row's *count* smallest values, in ascending order.

    One ``kth=count - 1`` partition moves a row's *count* smallest values
    in front of the rest, and sorting only those gives its first *count*
    order statistics: the same values, so the same bytes, as a full sort
    of the row.
    """
    front = np.partition(block, count - 1, axis=1)[:, :count]
    front.sort(axis=1)
    return front


def _knn_rows(
    values: np.ndarray,
    columns: np.ndarray,
    start: int,
    memory_bound_bytes: int | None,
) -> int:
    """Fill ``columns[start:]`` with the square *values*' k-NN distances.

    k is ``columns.shape[1]``.  Row blocks of at most
    :func:`_knn_block_rows` rows are selected one at a time; returns the
    block height.
    """
    count, k = columns.shape
    block = _knn_block_rows(count, values.dtype.itemsize, memory_bound_bytes)
    for begin in range(start, count, block):
        stop = min(count, begin + block)
        # Sorted position 0 is the self-distance (diagonal zero); 1..k
        # are the k nearest other segments, exactly as in
        # :meth:`DissimilarityMatrix.knn_distances`.
        columns[begin:stop] = _smallest_sorted(values[begin:stop], k + 1)[:, 1:]
    return block


def _allocate_values(count: int, dtype: str, storage: str) -> np.ndarray:
    """Zero-filled (count, count) value storage per the requested mode.

    The memmap mode backs the array with an unlinked temporary file
    (``$TMPDIR``): the mapping stays valid after the unlink on POSIX, so
    no cleanup handle is needed — the space is reclaimed when the array
    is garbage-collected.  Falls back to RAM when the filesystem refuses
    (read-only temp dir, exotic platforms).  RAM that cannot hold the
    matrix raises a :class:`ComputeError` naming the segment count, the
    bytes requested and the settings that shrink or move them.
    """
    size = count * count * np.dtype(dtype).itemsize
    if storage == STORAGE_MEMMAP:
        try:
            fd, name = tempfile.mkstemp(prefix="repro-matrix-", suffix=".values")
            try:
                os.ftruncate(fd, max(1, size))
                with os.fdopen(fd, "r+b") as handle:
                    fd = None
                    values = np.memmap(
                        handle, dtype=dtype, mode="r+", shape=(count, count)
                    )
            finally:
                if fd is not None:
                    os.close(fd)
                os.unlink(name)
            return values
        except OSError as error:
            logger.warning("memmap storage unavailable (%s); using RAM", error)
    try:
        return np.zeros((count, count), dtype=dtype)
    except MemoryError as error:
        raise ComputeError(
            f"cannot allocate the dissimilarity matrix of {count} unique "
            f"segments: {size} bytes of {dtype} in RAM; "
            f'storage="memmap" (--matrix-memmap) keeps it on disk and '
            f'dtype="float32" (--matrix-dtype float32) halves it'
        ) from error


@dataclass
class DissimilarityMatrix:
    """Symmetric matrix of Canberra dissimilarities between unique segments."""

    segments: list[UniqueSegment]
    values: np.ndarray
    stats: BuildStats | None = None
    #: Cached k-th-NN distance columns (one per k, widest request wins);
    #: see :meth:`knn_distances_all`.
    _knn_columns: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
    ) -> "DissimilarityMatrix":
        """Build D over *segments*, honoring the execution *options*.

        ``options=None`` means ``MatrixBuildOptions()``.  Inline and
        threaded runs, and cache hits, return bit-identical values.
        """
        if options is None:
            options = MatrixBuildOptions()
        matrixcache.declare_cache_metrics()
        with get_tracer().span(
            "matrix.build", unique_segments=len(segments)
        ) as span:
            stats = BuildStats(
                unique_count=len(segments),
                dtype=options.dtype,
                storage=options.storage,
            )

            order: list[int] | None = None
            if options.use_cache:
                stats.cache_key, order = matrixcache.canonical_order_key(
                    [segment.data for segment in segments],
                    penalty_factor,
                    dtype=options.dtype,
                )
                canonical = matrixcache.load_matrix(stats.cache_key, options.cache_dir)
                if canonical is not None and canonical.shape[0] == len(segments):
                    # Stored in canonical (byte-sorted) order; permute back
                    # to the caller's segment order.
                    rank = np.empty(len(segments), dtype=np.int64)
                    rank[order] = np.arange(len(segments))
                    values = canonical.take(rank, axis=0).take(rank, axis=1)
                    stats.backend = "cache"
                    stats.cache_hit = True
                    cls._record_build(span, stats)
                    return cls(segments=segments, values=values, stats=stats)

            values = _allocate_values(len(segments), options.dtype, options.storage)
            _compute_new_cells(values, [], segments, penalty_factor, options, stats)
            stats.backend = "parallel" if stats.tile_count else "serial"

            if options.use_cache and stats.cache_key is not None and order is not None:
                canonical = values.take(order, axis=0).take(order, axis=1)
                matrixcache.store_matrix(stats.cache_key, canonical, options.cache_dir)

            cls._record_build(span, stats)
            return cls(segments=segments, values=values, stats=stats)

    @staticmethod
    def _record_build(span, stats: BuildStats) -> None:
        """Mirror one build's :class:`BuildStats` into its span."""
        span.set(
            backend=stats.backend,
            dtype=stats.dtype,
            storage=stats.storage,
            workers=stats.workers,
            tasks=stats.task_count,
            pairs=stats.pairs_vectorized,
            cache_hit=stats.cache_hit,
            cache_key=stats.cache_key,
        )
        if stats.tile_count:
            span.set(tiles=stats.tile_count)

    def __len__(self) -> int:
        return len(self.segments)

    def distance(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def knn_distances(self, k: int) -> np.ndarray:
        """Dissimilarity of every segment to its k-th nearest neighbor.

        Neighbors exclude the segment itself (k=1 is the closest other
        segment).  Requires ``k < len(self)``.

        This is the full-sort reference implementation, with no runtime
        caller: tests pin :meth:`knn_distances_all`'s columns against
        it, and ``benchmarks/bench_pipeline.py`` gates the one-pass
        extraction at >=5x faster than it.  Runtime code reads
        :meth:`knn_distances_all`, which returns the identical columns
        from one selection pass and caches them on the matrix.
        """
        count = len(self)
        if not 1 <= k < count:
            raise ValueError(f"k must be in [1, {count - 1}], got {k}")
        ordered = np.sort(self.values, axis=1)
        # Column 0 is the self-distance (diagonal zero); column k is the
        # k-th nearest other segment.  Duplicate zero distances cannot
        # occur because segments are unique values.
        return ordered[:, k]

    def knn_distances_all(
        self, k_max: int, memory_bound_bytes: int | None = None
    ) -> np.ndarray:
        """Every k-th-NN distance column for k in [1, k_max], at once.

        Returns a ``(n, k_max)`` array whose column ``k - 1`` equals
        ``knn_distances(k)`` — the k-th order statistic of a row is the
        same value whether it comes from a full sort or a selection, so
        the columns are bit-identical to the reference.  Each row block
        takes one ``kth=k_max`` partition and sorts only its rows'
        ``k_max + 1`` smallest values: O(n²) in all instead of the
        reference's O(n² log n) full sort per k.  Blocks hold at most
        :data:`KNN_BLOCK_ROWS` rows and stay under *memory_bound_bytes*
        (the partition copies its block, so a full-matrix pass would
        transiently double the resident matrix).

        The widest computed result is cached on the matrix: Algorithm 1
        retrims and repeated ``configure()`` calls reuse the columns
        instead of re-scanning the matrix.
        """
        count = len(self)
        if not 1 <= k_max < count:
            raise ValueError(f"k_max must be in [1, {count - 1}], got {k_max}")
        cached = self._knn_columns
        if cached is not None and cached.shape[1] >= k_max:
            return cached[:, :k_max]
        with get_tracer().span(
            "matrix.knn", k_max=k_max, rows=count
        ) as span:
            columns = np.empty((count, k_max), dtype=self.values.dtype)
            block = _knn_rows(self.values, columns, 0, memory_bound_bytes)
            span.set(block_rows=block)
        self._knn_columns = columns
        return columns

    def submatrix(self, indices: list[int]) -> np.ndarray:
        return self.values[np.ix_(indices, indices)]

    def condensed(self) -> np.ndarray:
        """Upper-triangle distances as a flat vector (scipy convention)."""
        iu = np.triu_indices(len(self), k=1)
        return self.values[iu]


class AppendableMatrix:
    """A dissimilarity matrix that grows in place as segments arrive.

    Wraps :class:`DissimilarityMatrix` with capacity-managed backing
    storage (geometric over-allocation, so repeated appends amortize
    the O(n²) copy) and an :meth:`append` that computes only the
    new-vs-old rectangles and the new-vs-new diagonal — through the
    same row-tile engine as a batch build (itself an append onto an
    empty matrix), so the grown matrix is bit-identical to
    ``DissimilarityMatrix.build`` over the union of segments.  The
    cached k-NN columns are folded forward with a rank-k merge instead
    of re-partitioning every old row.

    The live view is :attr:`matrix`; views handed out before an append
    stay valid (their old-vs-old cells are never rewritten), so a
    snapshot taken at n segments keeps describing those n segments.
    """

    def __init__(
        self,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
    ) -> None:
        if options is None:
            options = MatrixBuildOptions()
        self.options = options
        self.penalty_factor = penalty_factor
        segments = list(segments)
        built = DissimilarityMatrix.build(segments, penalty_factor, options)
        count = len(segments)
        capacity = max(1, count, int(count * RESERVE_FACTOR))
        self._backing = _allocate_values(capacity, options.dtype, options.storage)
        self._backing[:count, :count] = built.values
        self._count = count
        self._matrix = DissimilarityMatrix(
            segments=segments,
            values=self._backing[:count, :count],
            stats=built.stats,
        )
        self._matrix._knn_columns = built._knn_columns

    @property
    def matrix(self) -> DissimilarityMatrix:
        """The live matrix over every segment appended so far."""
        return self._matrix

    @property
    def segments(self) -> list[UniqueSegment]:
        return self._matrix.segments

    def __len__(self) -> int:
        return self._count

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._backing.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, int(capacity * RESERVE_FACTOR) + 1)
        grown = _allocate_values(new_capacity, self.options.dtype, self.options.storage)
        grown[: self._count, : self._count] = self._backing[
            : self._count, : self._count
        ]
        # The previous backing stays alive as long as older matrix
        # views reference it; their values are final, so nothing is lost.
        self._backing = grown

    def append(self, new_segments: list[UniqueSegment]) -> DissimilarityMatrix:
        """Grow the matrix by *new_segments*; returns the new live view.

        *new_segments* must be unique among themselves and against every
        segment already in the matrix (the caller deduplicates — the
        session does, via its payload registry).  Only the cells with a
        new index on at least one side are computed; everything else is
        carried forward untouched.
        """
        new_segments = list(new_segments)
        added = len(new_segments)
        if not added:
            return self._matrix
        old_count = self._count
        count = old_count + added
        options = self.options
        with get_tracer().span(
            "matrix.append", old_segments=old_count, new_segments=added
        ) as span:
            self._ensure_capacity(count)
            values = self._backing[:count, :count]
            stats = BuildStats(
                unique_count=count,
                backend="append",
                dtype=options.dtype,
                storage=options.storage,
            )
            old_segments = self._matrix.segments
            _compute_new_cells(
                values, old_segments, new_segments, self.penalty_factor, options, stats
            )

            merged_knn = self._merged_knn_columns(values, old_count, count)
            DissimilarityMatrix._record_build(span, stats)
            matrix = DissimilarityMatrix(
                segments=old_segments + new_segments, values=values, stats=stats
            )
            matrix._knn_columns = merged_knn
            self._matrix = matrix
            self._count = count
        return matrix

    def _merged_knn_columns(
        self, values: np.ndarray, old_count: int, count: int
    ) -> np.ndarray | None:
        """Rank-k merge of the cached k-NN columns with the new cells.

        An old row's k nearest neighbors within the union are the k
        smallest of (its cached k nearest among the old rows) ∪ (its
        distances to the new rows) — the cached columns provably
        contain every union minimum that is an old segment.  New rows
        get one selection over their full rows, exactly as
        :meth:`DissimilarityMatrix.knn_distances_all` would.  Both are
        the same order statistics the batch path extracts, hence
        bit-identical; only O(n·(k+m)) work instead of O(n²).
        """
        cached = self._matrix._knn_columns
        if cached is None:
            return None
        k = min(cached.shape[1], count - 1)
        if k < 1:
            return None
        with get_tracer().span("matrix.knn_merge", k_max=k, rows=count):
            columns = np.empty((count, k), dtype=values.dtype)
            block = _knn_block_rows(
                k + count - old_count, values.dtype.itemsize, None
            )
            for start in range(0, old_count, block):
                stop = min(old_count, start + block)
                columns[start:stop] = _smallest_sorted(
                    np.concatenate(
                        [cached[start:stop, :k], values[start:stop, old_count:count]],
                        axis=1,
                    ),
                    k,
                )
            _knn_rows(values[:count, :count], columns, old_count, None)
        return columns

    def replace_segments(self, segments: list[UniqueSegment]) -> DissimilarityMatrix:
        """Swap in refreshed segment objects without touching the values.

        The session uses this after merging occurrence lists: the byte
        values (and therefore every dissimilarity and the cache key)
        must be unchanged, position by position — only metadata like
        occurrence tuples may differ.
        """
        segments = list(segments)
        if len(segments) != self._count:
            raise ValueError(
                f"expected {self._count} replacement segments, got {len(segments)}"
            )
        for position, (old, new) in enumerate(zip(self._matrix.segments, segments)):
            if old.data != new.data:
                raise ValueError(
                    f"replacement segment {position} changes the byte value"
                )
        matrix = DissimilarityMatrix(
            segments=segments,
            values=self._matrix.values,
            stats=self._matrix.stats,
        )
        matrix._knn_columns = self._matrix._knn_columns
        self._matrix = matrix
        return matrix

    def persist(self, cache_dir: str | Path | None = None) -> None:
        """Store the live matrix in the on-disk cache.

        After this, a batch ``DissimilarityMatrix.build`` over the same
        segment set (with ``use_cache=True``) hits instead of paying the
        full O(n²) computation — e.g. a later offline re-analysis of a
        capture a session already grew through.
        """
        datas = [segment.data for segment in self._matrix.segments]
        key, order = matrixcache.canonical_order_key(
            datas,
            self.penalty_factor,
            dtype=self.options.dtype,
        )
        values = self._matrix.values
        canonical = values.take(order, axis=0).take(order, axis=1)
        matrixcache.store_matrix(key, canonical, cache_dir or self.options.cache_dir)
