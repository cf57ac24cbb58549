"""Pairwise dissimilarity matrix over unique segments (paper Section III-C).

Builds the full symmetric matrix **D** used as DBSCAN's precomputed
metric and as the source of the k-NN distance distributions for the
epsilon auto-configuration.  Computation is grouped by segment length so
that equal-length pairs use the plain normalized Canberra distance and
unequal-length pairs use the sliding/penalty extension.

Every cell is filled by the vectorized **binned** kernel (see
:mod:`repro.core.canberra`): Canberra terms come from a byte-term
lookup table (summed plane by plane for segments narrower than
``NUMPY_PAIRWISE_SUM_MIN`` bytes), an equal-length bin runs as bands —
each tile computes its rows from its first row on through the one
rectangular kernel and writes the part right of its own rows again,
transposed (the LUT is exactly symmetric) — and unequal lengths run
through window tables — the distinct width-``m`` windows of the longer
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
whose longer segments a build caps at ``CHUNK_CELL_BUDGET // 4`` window
bytes, since each task's table lives from its first tile to its last.
It sub-tiles every task along its rows into tiles of at most
:data:`TILE_ROWS` rows inside the kernel's ~160 MB temporary budget,
and runs the tiles longest-processing-time-first, each task's tiles
together, through the matrix's one runner (:func:`run_blocks`):
inline — one worker, one tile, or fewer estimated gather cells than
:data:`THREAD_POOL_MIN_CELLS` — or on a
:class:`concurrent.futures.ThreadPoolExecutor`.  The numpy LUT gathers
release the GIL, so worker threads share the uint8 blocks and the
output matrix (RAM or memmap) zero-copy: each tile is written straight
into its disjoint cells of the output — no result shipping, no
pickling.  While the tiles run, the new segments' columns follow a
**working layout** in which each length's segments are one column
range, so a tile and its mirror write a fancy row index against a
column slice instead of scattering; one pass over row blocks then puts
the columns back in segment order (:func:`permute_columns`).  Tile
boundaries are deterministic (worker-count independent) and every cell
is the same reduction either way, so the bytes are identical regardless
of worker count, completion order, or whether the matrix was built at
once or grown by appends.

:class:`AppendableMatrix` keeps what an append does not change: its
segments' per-length blocks and, per short width, the window table of
every longer segment.  An append extends each table by the windows of
its new segments on the calling thread, before its tiles run, instead
of rebuilding it in every tile.

The post-matrix row scans (the k-NN selection here, DBSCAN's
ε-adjacency, refinement's merge scan) run on the same pool rule
(:func:`pool_workers`) through the same runner: row
blocks of at most :data:`SCAN_BLOCK_ROWS` rows (the inline ε-adjacency
excepted), each writing or returning only its own rows' results, so a
scan's output does not depend on whether its blocks ran inline or on
threads.

The ``matrix.build`` / ``matrix.append`` span is the one record of a
build: which path ran, where the values live, how much work it did and,
like every other layer's span, how long it took.  Tiles are the one
place that times its own work: a worker thread cannot reach the
caller's tracer or metrics registry, so every tile, inline or threaded,
measures itself, and the calling thread records the finished ones as
closed ``matrix.bin`` spans and counts the failed ones.
"""

from __future__ import annotations

import logging
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.core.canberra import (
    CHUNK_CELL_BUDGET,
    DEFAULT_PENALTY_FACTOR,
    WindowTable,
    cross_length_rows,
    equal_length_cross_rows,
    window_table,
)
from repro.core.membound import divide_bound, resolve_bound, rows_per_block
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

#: Most rows in one tile of any task.  Tasks are split along their rows
#: into tiles the threaded schedule can balance, and short tiles keep an
#: equal-length bin's temporaries small: 1,400 random three-byte
#: segments built as one full-square tile held 63 MiB above the matrix,
#: as 128-row bands 6.3 MiB.  A "cross" tile reuses its task's window
#: table, so the height does not spread the table's cost.
TILE_ROWS = 128

#: Least summed tile ``cost`` (estimated gather cells, see
#: :func:`_task_tiles`) for which a build with more than one worker and
#: at least two tiles runs them on the thread pool; below it the pool
#: costs more than it saves.  Inline/threaded time of fresh builds of
#: NEMESYS segment subsets of NTP-700, SMB-240 and a 60-message SMB
#: trace (seed 924, 2 vCPUs, median of 7 interleaved pairs): 0.49-1.09
#: up to 1.6M cells, 0.94-1.29 from 2.6M to 8.1M, 1.29-1.98 from 27M
#: on.  A ``repro serve`` append holds 0.02-0.15M cells.  The post-matrix
#: row scans count the matrix cells they read (:func:`pool_workers`).
THREAD_POOL_MIN_CELLS = 4_000_000

#: Most rows one block of a post-matrix row scan takes (below what its
#: share of ``memory_bound_bytes`` admits).  Each block copies or
#: gathers its rows, so short blocks keep the copy cache-resident and
#: out of the peak RSS, and give a threaded scan blocks to balance.
#: Inline on 4274 NTP segments (2 vCPUs, median of 9): 128-row blocks
#: selected the k-NN columns in 0.064 s against 0.083 s for 256 rows.
#: The inline ε-adjacency, whose blocks copy nothing, keeps the fewest
#: blocks the bound admits.
SCAN_BLOCK_ROWS = 128

#: Most bytes one step of :func:`permute_columns` copies, so that its
#: gather and the write-back stay in a core's cache.  A serial pass over
#: 4274 columns (2 vCPUs, median of 9) took 28 ms in 16-row (512 KiB)
#: steps against 43 ms in 128-row ones.
PERMUTE_STEP_BYTES = 1 << 19

#: Growth factor of :class:`AppendableMatrix`'s backing capacity (and of
#: its kept window tables' window buffers).
RESERVE_FACTOR = 1.5

#: Most bytes :class:`AppendableMatrix`'s kept window tables may hold,
#: as a share of its matrix backing's bytes.  Past it, the largest
#: tables are dropped after an append; a dropped width is built again,
#: as if first seen, when new segments of that width next arrive.
KEPT_TABLE_SHARE = 1.0

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
    single-core machines and below :data:`THREAD_POOL_MIN_CELLS`), float64
    values in RAM.  The CLIs expose every knob as a flag.
    """

    #: Parallel worker count.  The convention is uniform across the
    #: library and both CLIs: ``None`` ⇒ one worker per CPU this process
    #: may run on, ``0`` ⇒ serial (an explicit opt-out, same as
    #: ``--workers 0``), ``N >= 1`` ⇒ exactly N workers.  Negative
    #: values are rejected.
    workers: int | None = None
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

        ``None`` resolves to the CPUs this process may run on (its
        scheduler affinity where the platform has one, else
        ``os.cpu_count()``); ``0`` resolves to 1 — it *means* serial
        (the ``--workers 0`` convention shared by both CLIs), and the
        build honors that because the thread pool only engages when the
        resolved count exceeds one.
        """
        if self.workers is None:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        return int(self.workers) or 1


@dataclass(eq=False)
class _BinTask:
    """One independent work item: the cells between two segment groups.

    *kind* is "same" (one equal-length group against itself; both sides
    carry the same block and indices), "eqcross" (two disjoint groups of
    one length — an append's new-vs-old rectangle) or "cross" (segments
    of one short length against a group of longer segments, through the
    group's window table).  The blocks are the groups' raw
    ``(count, length)`` uint8 rows — *blocks_b* holds the longer
    segments' blocks, in column order, for "cross", the one column block
    otherwise.  *rows* and *cols* are the two sides' matrix rows (intp),
    and *row_columns* and *columns* their columns in the build's working
    layout (:func:`_append_tasks`): a ``range`` for new segments, which
    lie side by side there, the matrix rows again for old ones.  So a
    task's row and column sets may come from different segment
    generations, and a tile writes a fancy row index against a column
    slice wherever its columns are new.

    A "cross" task's window table over *blocks_b* is built by the first
    of its tiles to ask for it (:meth:`window_table`), the others wait
    for it, and the last tile to finish drops it (:meth:`tile_done`);
    an append passes in the table it built before its tiles run.
    """

    kind: str
    block_a: np.ndarray
    blocks_b: tuple[np.ndarray, ...]
    rows: np.ndarray
    cols: np.ndarray
    row_columns: range | np.ndarray
    columns: range | np.ndarray
    table: WindowTable | None = None
    #: Tiles not yet finished (set by :func:`_task_tiles`).
    pending: int = 0
    #: Whether one of the task's tiles built its window table.
    built: bool = False
    _error: BaseException | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def lengths(self) -> tuple[int, int]:
        """The row length and the longest column length."""
        return self.block_a.shape[1], max(block.shape[1] for block in self.blocks_b)

    @property
    def window_cells(self) -> int:
        """Bytes of the width-``len_a`` windows of every column segment."""
        m = self.block_a.shape[1]
        return sum(
            block.shape[0] * (block.shape[1] - m + 1) * m for block in self.blocks_b
        )

    def window_table(self) -> WindowTable:
        """The "cross" task's window table, built once for all its tiles.

        A tile that asks while another builds it waits on the task's
        lock; after a failed build every tile of the task raises
        instead of building the table again.
        """
        with self._lock:
            if self.table is None:
                if self._error is not None:
                    raise RuntimeError(
                        f"window table failed in another tile: {self._error}"
                    ) from self._error
                try:
                    self.table = window_table(self.blocks_b, self.block_a.shape[1])
                except BaseException as error:
                    self._error = error
                    raise
                self.built = True
            return self.table

    def tile_done(self) -> None:
        """Count one finished tile; the last one drops the window table."""
        with self._lock:
            self.pending -= 1
            if self.pending <= 0:
                self.table = None


def _length_bins(
    segments: list[UniqueSegment], offset: int = 0
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per segment length: the global indices and one (count, length) block.

    Segment *i* gets matrix index ``offset + i`` (an intp array, so tiles
    scatter with broadcast indices).  Rows are decoded with
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
        bins[length] = (np.array(indices, dtype=np.intp) + offset, block)
    return bins


def _merged_bins(
    old_bins: dict[int, tuple[np.ndarray, np.ndarray]],
    new_bins: dict[int, tuple[np.ndarray, np.ndarray]],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per length, the old bin's indices and rows followed by the new's."""
    bins = dict(old_bins)
    for length, (indices, block) in new_bins.items():
        old = bins.get(length)
        if old is not None:
            indices = np.concatenate([old[0], indices])
            block = np.concatenate([old[1], block])
        bins[length] = (indices, block)
    return bins


#: One side of a task: its segments' matrix indices (intp), their
#: ``(count, length)`` uint8 rows, and their columns in the working layout
#: (:func:`_append_tasks`).
_Side = tuple[np.ndarray, np.ndarray, "range | np.ndarray"]


def _cross_tasks(short: _Side, longs: list[_Side]) -> list[_BinTask]:
    """"cross" tasks of one short side against the longer sides *longs*.

    The longer segments are cut, in order, into consecutive groups of at
    most ``CHUNK_CELL_BUDGET // 4`` window bytes (a segment whose own
    windows exceed that forms a group alone), one task each: each task's
    window table is alive from its first tile to its last, so the cap
    bounds every table whatever the trace's length spread.
    """
    m = short[1].shape[1]
    cap = CHUNK_CELL_BUDGET // 4
    tasks = []
    group: list[_Side] = []
    cells = 0
    for indices, block, columns in longs:
        per_segment = (block.shape[1] - m + 1) * m
        start = 0
        while start < len(indices):
            if group and cells + per_segment > cap:
                tasks.append(_cross_task(short, group))
                group, cells = [], 0
            stop = min(len(indices), start + max(1, (cap - cells) // per_segment))
            group.append(
                (indices[start:stop], block[start:stop], columns[start:stop])
            )
            cells += (stop - start) * per_segment
            start = stop
    if group:
        tasks.append(_cross_task(short, group))
    return tasks


def _cross_task(
    short: _Side, longs: list[_Side], table: WindowTable | None = None
) -> _BinTask:
    """One "cross" task of *short*'s rows against the rows of *longs*,
    bin after bin."""
    parts = [columns for *_, columns in longs]
    if all(isinstance(part, range) for part in parts):
        # New bins lie side by side in the working layout, lengths
        # ascending, which is the order *longs* lists them in.
        columns = range(parts[0].start, parts[-1].stop)
    else:
        columns = np.concatenate(
            [np.arange(p.start, p.stop) if isinstance(p, range) else p for p in parts]
        )
    return _BinTask(
        "cross",
        short[1],
        tuple(block for _, block, _ in longs),
        short[0],
        np.concatenate([indices for indices, *_ in longs]),
        short[2],
        columns,
        table,
    )


def _working_order(new_bins: dict[int, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The new segments' matrix indices in working-layout column order:
    their bins side by side, lengths ascending."""
    indices = [new_bins[length][0] for length in sorted(new_bins)]
    return np.concatenate(indices) if indices else np.empty(0, dtype=np.intp)


def _append_tasks(
    old_bins: dict[int, tuple[np.ndarray, np.ndarray]],
    new_bins: dict[int, tuple[np.ndarray, np.ndarray]],
    tables: _KeptTables | None = None,
) -> list[_BinTask]:
    """Work items covering exactly the cells with a new segment on a side.

    Per length over the union of old and new lengths, emit only the
    blocks with at least one *new* segment on a side: the new-vs-new
    "same" square, the new-vs-old "eqcross" rectangle, and two
    "cross" sides against the longer lengths — the new short rows
    against every longer segment, old and new, and the old short rows
    against the new longer ones.  Old-vs-old cells already hold their
    final values and are never touched, which is what keeps concurrent
    tile writes disjoint from the live matrix view.  A batch build
    passes no old bins and no *tables*, and each of its "cross" tasks
    builds its capped window table in its first tile
    (:func:`_cross_tasks`); an append passes its kept *tables*, which
    build or extend each width's tables now
    (:meth:`_KeptTables.cross_tasks`).  Every cell goes through the same
    kernel reduction either way, which makes an appended matrix
    bit-identical to a from-scratch build.

    While the tiles run, the new segments' columns follow the **working
    layout** (:func:`_working_order`): after the old segments' columns,
    which keep their indices, the new bins lie side by side, lengths
    ascending, so a new bin and any run of consecutive new longer bins
    are one column range.  Rows keep the matrix order.
    :func:`_compute_new_cells` puts the new columns back in segment order
    after the tiles.
    """
    old_count = sum(indices.size for indices, _ in old_bins.values())
    old_sides = {n: (*old_bins[n], old_bins[n][0]) for n in old_bins}
    new_sides = {}
    start = old_count
    for length in sorted(new_bins):
        indices, block = new_bins[length]
        new_sides[length] = (indices, block, range(start, start + indices.size))
        start += indices.size
    tasks = []
    lengths = sorted(set(old_bins) | set(new_bins))
    for li, length in enumerate(lengths):
        old = old_sides.get(length)
        new = new_sides.get(length)
        longer = lengths[li + 1 :]
        if new:
            tasks.append(_BinTask("same", new[1], (new[1],), new[0], new[0], new[2], new[2]))
        if new and old:
            tasks.append(
                _BinTask("eqcross", new[1], (old[1],), new[0], old[0], new[2], old[2])
            )
        every_longer = [
            sides[n] for n in longer for sides in (old_sides, new_sides) if n in sides
        ]
        if tables is None:  # a batch build: every bin is new
            tasks.extend(_cross_tasks(new, every_longer))
        else:
            new_longer = [new_sides[n] for n in longer if n in new_sides]
            tasks.extend(
                tables.cross_tasks(length, old, new, new_longer, every_longer)
            )
    return tasks


class _KeptTable:
    """The width-``m`` window table of every segment longer than ``m``.

    :class:`AppendableMatrix` keeps one per short width across appends.
    Rows ``[:count]`` of the window buffer are distinct windows (the
    buffer grows by capacity, as the matrix backing does), ``_rows``
    finds a window's row by its bytes, and ``index[n]`` lists, segment
    by segment and offset by offset, the row of each window of the
    length-``n`` segments, in their bin's order: one index block per
    long length, however many appends brought its segments.
    """

    def __init__(self, m: int) -> None:
        self.m = m
        self.count = 0
        self._windows = np.empty((0, m), dtype=np.uint8)
        self._rows: dict[bytes, int] = {}
        self.index: dict[int, np.ndarray] = {}

    def extend(self, table: WindowTable) -> int:
        """Add the segments of *table* (of this width, over segments the
        kept table does not hold yet) after the kept ones of their
        lengths; returns how many distinct windows the table gained.

        Each of *table*'s windows is looked up by its bytes, so a window
        the kept table holds keeps its row and only unseen ones are
        added.
        """
        m = self.m
        data = table.windows.tobytes()
        rows = []
        fresh = []
        for i in range(table.windows.shape[0]):
            window = data[i * m : (i + 1) * m]
            row = self._rows.get(window)
            if row is None:
                row = self._rows[window] = self.count + len(fresh)
                fresh.append(i)
            rows.append(row)
        if fresh:
            needed = self.count + len(fresh)
            capacity = self._windows.shape[0]
            if needed > capacity:
                # Earlier tables' views keep the old buffer alive; rows
                # below ``count`` are never rewritten.
                grown = np.empty(
                    (max(needed, int(capacity * RESERVE_FACTOR) + 1), m),
                    dtype=np.uint8,
                )
                grown[: self.count] = self._windows[: self.count]
                self._windows = grown
            self._windows[self.count : needed] = table.windows[fresh]
            self.count = needed
        kept_rows = np.array(rows, dtype=np.intp)
        position = 0
        for segments, n in table.shapes:
            size = segments * (n - m + 1)
            block = kept_rows[table.index[position : position + size]]
            kept = self.index.get(n)
            self.index[n] = block if kept is None else np.concatenate([kept, block])
            position += size
        return len(fresh)

    def table(self) -> WindowTable:
        """The kept table as a :class:`WindowTable`, lengths ascending."""
        lengths = sorted(self.index)
        return WindowTable(
            self._windows[: self.count],
            np.concatenate([self.index[n] for n in lengths]),
            tuple((self.index[n].size // (n - self.m + 1), n) for n in lengths),
        )

    @property
    def nbytes(self) -> int:
        """Bytes held: the window buffer, the index and the lookup."""
        return (
            self._windows.nbytes
            + sum(index.nbytes for index in self.index.values())
            + sys.getsizeof(self._rows)
            + self.count * (sys.getsizeof(b"") + self.m)
        )


class _KeptTables:
    """:class:`AppendableMatrix`'s window tables, one per short width.

    An append lists its "cross" tasks through :meth:`cross_tasks`, which
    builds each table on the calling thread before any tile runs (tiles
    only read them) and counts the work in :attr:`built` and
    :attr:`windows_added`.
    """

    def __init__(self) -> None:
        self._tables: dict[int, _KeptTable] = {}
        #: Window tables built by the current append.
        self.built = 0
        #: Distinct windows the kept tables gained in the current append.
        self.windows_added = 0

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def nbytes(self) -> int:
        return sum(table.nbytes for table in self._tables.values())

    def _build(self, longs: list[_Side], m: int) -> WindowTable:
        self.built += 1
        return window_table([block for _, block, _ in longs], m)

    def cross_tasks(
        self,
        m: int,
        old: _Side | None,
        new: _Side | None,
        new_longer: list[_Side],
        every_longer: list[_Side],
    ) -> list[_BinTask]:
        """The "cross" tasks of short width *m* in an append.

        One table is built over the new longer segments (the extension):
        the old rows of width *m* take their cells from it, and it is
        merged into the kept table, which the new rows of width *m* use.
        A width without a kept table builds its table over every longer
        segment when new rows of that width arrive, and keeps it.
        *every_longer* lists the longer bins in the kept tables' column
        order: per length, the old bin before the new.
        """
        tasks = []
        kept = self._tables.get(m)  # only widths the matrix holds have one
        if new_longer and old is not None:
            extension = self._build(new_longer, m)
            tasks.append(_cross_task(old, new_longer, extension))
            if kept is not None:
                self.windows_added += kept.extend(extension)
        if new is not None and every_longer:
            if kept is None:
                kept = self._tables[m] = _KeptTable(m)
                self.windows_added += kept.extend(self._build(every_longer, m))
            tasks.append(_cross_task(new, every_longer, kept.table()))
        return tasks

    def evict(self, bound: float) -> None:
        """Drop the largest tables until the rest hold at most *bound* bytes."""
        sizes = {m: table.nbytes for m, table in self._tables.items()}
        total = sum(sizes.values())
        for m in sorted(sizes, key=lambda m: (-sizes[m], m)):
            if total <= bound:
                break
            del self._tables[m]
            total -= sizes[m]


def _task_tiles(tasks: list[_BinTask]) -> list[tuple[_BinTask, int, int, int]]:
    """The engine's work queue: ``(task, row_start, row_stop, cost)``.

    Each task is sub-tiled along its rows into tiles of at most
    :data:`TILE_ROWS` rows whose gather stays inside the kernel's fixed
    temporary budget (:data:`repro.core.canberra.CHUNK_CELL_BUDGET`,
    ~160 MB of float64 cells; a "cross" row costs its group's window
    bytes), a task's tiles listed together in row order.  Boundaries
    depend only on the task shapes, never on the worker count, so the
    queue is deterministic; *cost* estimates the tile's gather cells (a
    "same" tile's band, for "cross" as if no window repeated), picks
    inline or threaded (:func:`pool_workers`) and orders the
    longest-processing-time-first run (:func:`_run_tiles`).  Sets each
    task's :attr:`_BinTask.pending` to its tile count.
    """
    tiles = []
    for task in tasks:
        rows, m = task.block_a.shape
        if task.kind == "cross":
            cells_per_row = max(1, task.window_cells)
        else:
            cells_per_row = max(1, len(task.cols) * m)
        tile_rows = max(1, min(TILE_ROWS, CHUNK_CELL_BUDGET // cells_per_row))
        for start in range(0, rows, tile_rows):
            stop = min(rows, start + tile_rows)
            if task.kind == "same":
                cost = (stop - start) * (rows - start) * m
            else:
                cost = (stop - start) * cells_per_row
            tiles.append((task, start, stop, cost))
        task.pending = -(-rows // tile_rows)
    return tiles


def _bin_attributes(task: _BinTask, row_start: int, row_stop: int) -> dict:
    """The ``matrix.bin`` span attributes of one tile known before it runs.

    *cells* counts the matrix cells the tile writes: its rows' cells,
    plus their mirror for the kinds whose columns are other segments
    (for a "same" tile, its band — its rows from its first row on —
    plus the mirror of the part right of its own rows).  *pairs* counts
    the distinct segment pairs, giving a "same" tile the pairs of its
    rows with the rows after them, so both sum exactly over a build's
    tiles (to ``n * n`` cells and ``n * (n - 1) / 2`` pairs).
    """
    rows = row_stop - row_start
    if task.kind == "same":
        count = task.block_a.shape[0]
        cells = rows * (2 * count - row_start - row_stop)
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


def _write(
    values: np.ndarray, rows: np.ndarray, columns: range | np.ndarray, block
) -> None:
    """``values[rows[i], columns[j]] = block[i, j]``: a fancy row index
    against a column slice where *columns* is a range, which copies
    each row's run at once even from a transposed *block*, and a
    broadcast scatter where it is an index array, which reads *block*
    cell by cell, so from a contiguous copy."""
    if isinstance(columns, range):
        values[rows, columns.start : columns.stop] = block
    else:
        values[rows[:, np.newaxis], columns] = np.ascontiguousarray(block)


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
    tile owns its band of its equal-length bin (its rows from its first
    row on) and the transpose of the part right of its own rows, and an
    "eqcross" or "cross" tile owns its rows' cells and their
    transposes, so concurrent workers never write the same cell.  Cells
    go to the working layout's columns (:func:`_append_tasks`).  A
    "cross" tile takes its task's window table (built by the first tile
    that asks, dropped after the last) and returns the table's
    ``windows`` and ``unique_windows`` counts for its ``matrix.bin``
    span (other kinds return no counts).
    """
    table_counts = {}
    first = row_start if task.kind == "same" else 0
    if task.kind == "cross":
        try:
            table = task.window_table()
            tile = cross_length_rows(
                task.block_a,
                table,
                row_start,
                row_stop,
                penalty_factor=penalty_factor,
                cells_budget=cells_budget,
            )
        finally:
            task.tile_done()
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
    _write(values, task.rows[row_start:row_stop], task.columns[first:], tile)
    # The mirror: the column segments' rows at the row segments'
    # columns.  A "same" tile's first columns are its own rows, written
    # above.
    skip = row_stop - row_start if task.kind == "same" else 0
    _write(
        values,
        task.cols[first + skip :],
        task.row_columns[row_start:row_stop],
        tile[:, skip:].T,
    )
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


def _run_tiles(
    tiles: list[tuple[_BinTask, int, int, int]],
    values: np.ndarray,
    penalty_factor: float,
    workers: int,
) -> None:
    """Run the tile queue through :func:`run_blocks` on *workers* threads.

    Tasks run longest-processing-time-first (by their largest tile's
    estimated gather cells), each task's tiles together in row order, so
    the big bins start first, the small ones backfill and only about
    *workers* window tables are alive at once.  The kernel's temporary
    budget is divided across the workers
    (:func:`repro.core.membound.divide_bound`), so their aggregate peak
    memory matches an inline run's.

    Each tile times itself and files its outcome under its queue
    position.  Only then does the calling thread record a closed
    ``matrix.bin`` span for every tile that finished and count every
    failed one: a worker thread cannot reach the caller's tracer or
    metrics registry (both are bound through :mod:`contextvars`, and
    neither is thread-safe).  A failed tile fails the build with one
    :class:`ComputeError` naming the first failed tile's bin and the
    tiles never started.
    """
    largest: dict[_BinTask, int] = {}
    for task, *_, cost in tiles:
        largest[task] = max(largest.get(task, 0), cost)
    # A stable sort: each task's tiles stay together, in row order, and
    # ties keep the queue's order.
    queue = sorted(tiles, key=lambda tile: -largest[tile[0]])
    threaded = workers > 1
    cells_budget = divide_bound(CHUNK_CELL_BUDGET, workers)
    outcomes: list[dict | Exception | None] = [None] * len(queue)

    def run(position: int) -> None:
        task, row_start, row_stop, _ = queue[position]
        started = time.perf_counter()
        started_unix = time.time()
        try:
            table_counts = _compute_tile_into(
                values, task, row_start, row_stop, penalty_factor, cells_budget
            )
        except Exception as error:
            outcomes[position] = error
            raise
        outcome = {
            "wall_seconds": time.perf_counter() - started,
            "started_unix": started_unix,
            **table_counts,
        }
        if threaded:
            outcome["worker"] = threading.current_thread().name
            outcome["queue_seconds"] = round(started - enqueued, 6)
        outcomes[position] = outcome

    enqueued = time.perf_counter()
    try:
        run_blocks(run, range(len(queue)), workers)
    except Exception:
        # Every failed tile filed its error in *outcomes*; an error no
        # tile filed (a thread that could not start) is raised as it is.
        if not any(isinstance(outcome, Exception) for outcome in outcomes):
            raise
    tracer = get_tracer()
    failure = None
    for tile, outcome in zip(queue, outcomes):
        if isinstance(outcome, dict):
            tracer.record("matrix.bin", **_bin_attributes(*tile[:3]), **outcome)
        elif outcome is not None:
            _count_fault("bin_error")
            failure = failure or (tile, outcome)
    if failure is not None:
        tile, error = failure
        mode = "threaded" if threaded else "inline"
        raise _bin_error(tile, mode, outcomes.count(None), error) from error


def _compute_new_cells(
    values: np.ndarray,
    tasks: list[_BinTask],
    new_bins: dict[int, tuple[np.ndarray, np.ndarray]],
    penalty_factor: float,
    options: MatrixBuildOptions,
    span,
) -> bool:
    """Run *tasks*, filling every cell of *values* with a new segment.

    The single compute path behind :meth:`DissimilarityMatrix.build`
    (no old segments) and :meth:`AppendableMatrix.append`; *tasks* come
    from :func:`_append_tasks` over the *new_bins*, whose segments take
    the last indices.  The tile queue runs (:func:`_run_tiles`) on the
    thread pool when :func:`pool_workers` allows it for the tiles and
    their summed cost, inline otherwise; then one pass
    (:func:`permute_columns`) puts the
    new columns, in the working layout while the tiles ran, back in
    segment order.  Sets where *values* live and the work counts on the
    build's *span*; returns whether the pool ran.
    """
    count = values.shape[0]
    tiles = _task_tiles(tasks)
    resolved = options.effective_workers()
    workers = pool_workers(resolved, len(tiles), sum(tile[3] for tile in tiles))
    _run_tiles(tiles, values, penalty_factor, workers)
    threaded = workers > 1
    if threaded:
        span.set(tiles=len(tiles))
    order = _working_order(new_bins)
    old_count = count - order.size
    if not np.array_equal(order, np.arange(old_count, count)):
        # Column old_count + p holds new segment order[p].
        place = np.empty(order.size, dtype=np.intp)
        place[order - old_count] = np.arange(order.size)
        permute_columns(values, place, old_count, resolved)
    span.set(
        storage=_storage(values),
        workers=workers,
        tasks=len(tasks),
        # The tasks cover each pair with a new segment exactly once.
        pairs=count * (count - 1) // 2 - old_count * (old_count - 1) // 2,
    )
    return threaded


def permute_columns(
    values: np.ndarray, columns: np.ndarray, start: int = 0, workers: int = 1
) -> None:
    """``values[:, start:] = values[:, start:][:, columns]``, in place.

    One pass over row blocks of at least :data:`SCAN_BLOCK_ROWS` rows
    (run through :func:`run_blocks` on the :func:`pool_workers` rule),
    each taking its rows' columns into a copy of at most
    :data:`PERMUTE_STEP_BYTES` at a time and writing it back, so the
    pass holds one such copy per thread on top of *values*.  Restores
    segment order after a build's tiles.
    """
    if not columns.size:
        return
    rows = values.shape[0]
    step = max(1, PERMUTE_STEP_BYTES // (columns.size * values.dtype.itemsize))
    height = max(step, SCAN_BLOCK_ROWS)
    blocks = [(begin, min(rows, begin + height)) for begin in range(0, rows, height)]

    def permute(block: tuple[int, int]) -> None:
        for begin in range(*block, step):
            stop = min(block[1], begin + step)
            values[begin:stop, start:] = values[begin:stop, start:].take(columns, axis=1)

    run_blocks(permute, blocks, pool_workers(workers, len(blocks), rows * columns.size))


def pool_workers(workers: int, blocks: int, cells: int) -> int:
    """The threads a queue of *blocks* over *cells* cells runs on.

    The rule of the tile queue and of every post-matrix row scan: the
    thread pool runs only when more than one worker is resolved, there
    are at least two blocks and the cells (estimated gather cells for
    tiles, matrix cells read for a scan) reach
    :data:`THREAD_POOL_MIN_CELLS`.  Returns *workers* then, 1 (inline)
    otherwise.
    """
    if workers > 1 and blocks > 1 and cells >= THREAD_POOL_MIN_CELLS:
        return workers
    return 1


def scan_blocks(
    start: int,
    stop: int,
    row_bytes: int,
    memory_bound_bytes: int | None,
    workers: int,
) -> list[tuple[int, int]]:
    """Row blocks ``(begin, end)`` covering ``[start, stop)`` for a scan.

    A block holds at most :data:`SCAN_BLOCK_ROWS` rows and keeps its
    temporaries (*row_bytes* a row) under one worker's share of the
    bound (:func:`repro.core.membound.divide_bound`), so *workers*
    concurrent blocks together stay under *memory_bound_bytes*.
    """
    share = divide_bound(resolve_bound(memory_bound_bytes), workers)
    rows = min(SCAN_BLOCK_ROWS, rows_per_block(row_bytes, share))
    return [(begin, min(stop, begin + rows)) for begin in range(start, stop, rows)]


def run_blocks(scan, blocks: list, workers: int) -> list:
    """``[scan(block) for block in blocks]``, on *workers* threads if > 1.

    The matrix's one runner, of the tile queue (:func:`_run_tiles`) and
    of the post-matrix row scans; *workers* comes from
    :func:`pool_workers`.  Blocks write disjoint outputs or return their
    own, and results come back in block order, so nothing depends on
    which thread ran a block or when.  A block that raises fails the run
    only after the blocks already running have finished: every block not
    yet started is cancelled, then the first failed block's error (in
    block order) is raised.  Inline, the blocks after a failed one never
    start.
    """
    if workers <= 1:
        return [scan(block) for block in blocks]
    executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-matrix")
    try:
        futures = [executor.submit(scan, block) for block in blocks]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        if any(future.exception() is not None for future in done):
            for future in futures:
                future.cancel()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


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
    workers: int,
) -> tuple[int, int]:
    """Fill ``columns[start:]`` with the square *values*' k-NN distances.

    k is ``columns.shape[1]``.  Row blocks (:func:`scan_blocks`; a row
    costs its source row plus the partition's copy of it) are selected
    through :func:`run_blocks`, each into its own rows of *columns*;
    returns the block height and the threads that ran them.
    """
    count, k = columns.shape
    blocks = scan_blocks(
        start, count, 2 * count * values.dtype.itemsize, memory_bound_bytes, workers
    )

    def select(block: tuple[int, int]) -> None:
        begin, stop = block
        # Sorted position 0 is the self-distance (diagonal zero); 1..k
        # are the k nearest other segments, exactly as in
        # :func:`knn_distances_reference`.
        columns[begin:stop] = _smallest_sorted(values[begin:stop], k + 1)[:, 1:]

    used = pool_workers(workers, len(blocks), (count - start) * count)
    run_blocks(select, blocks, used)
    return blocks[0][1] - blocks[0][0], used


def knn_distances_reference(values: np.ndarray, k: int) -> np.ndarray:
    """Dissimilarity of every segment to its k-th nearest neighbor.

    Neighbors exclude the segment itself (k=1 is the closest other
    segment) in the square matrix *values*.  Requires
    ``1 <= k < len(values)``.

    The full-sort reference oracle, with no runtime caller: tests pin
    :meth:`DissimilarityMatrix.knn_distances_all`'s columns against it,
    and ``benchmarks/bench_pipeline.py`` gates the one-pass extraction
    at >=5x faster than it.  Runtime code reads
    :meth:`DissimilarityMatrix.knn_distances_all`, which returns the
    identical columns from one selection pass and caches them on the
    matrix.
    """
    count = len(values)
    if not 1 <= k < count:
        raise ValueError(f"k must be in [1, {count - 1}], got {k}")
    ordered = np.sort(values, axis=1)
    # Column 0 is the self-distance (diagonal zero); column k is the
    # k-th nearest other segment.  Duplicate zero distances cannot
    # occur because segments are unique values.
    return ordered[:, k]


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


def _storage(values: np.ndarray) -> str:
    """Where *values* live: :func:`_allocate_values` may fall back to RAM."""
    return STORAGE_MEMMAP if isinstance(values, np.memmap) else STORAGE_RAM


@dataclass
class DissimilarityMatrix:
    """Symmetric matrix of Canberra dissimilarities between unique segments."""

    segments: list[UniqueSegment]
    values: np.ndarray
    #: Cached k-th-NN distance columns (one per k, widest request wins);
    #: see :meth:`knn_distances_all`.
    _knn_columns: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    #: Algorithm 1's results on these values, keyed by the arguments of
    #: :func:`repro.core.autoconf.configure`, which fills and reads it;
    #: :meth:`AppendableMatrix.replace_segments` carries it, an append
    #: starts empty.
    _autoconfigs: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
    ) -> "DissimilarityMatrix":
        """Build D over *segments*, honoring the execution *options*.

        ``options=None`` means ``MatrixBuildOptions()``.  Inline and
        threaded runs return bit-identical values.  The ``matrix.build``
        span records the path that produced them: ``backend`` "serial"
        (tiles ran inline) or "parallel" (on the thread pool).
        """
        if options is None:
            options = MatrixBuildOptions()
        with get_tracer().span(
            "matrix.build", unique_segments=len(segments), dtype=options.dtype
        ) as span:
            values = _allocate_values(len(segments), options.dtype, options.storage)
            bins = _length_bins(segments)
            tasks = _append_tasks({}, bins)
            threaded = _compute_new_cells(
                values, tasks, bins, penalty_factor, options, span
            )
            span.set(
                backend="parallel" if threaded else "serial",
                tables_built=sum(task.built for task in tasks),
            )
        return cls(segments=segments, values=values)

    def __len__(self) -> int:
        return len(self.segments)

    def distance(self, i: int, j: int) -> float:
        return float(self.values[i, j])

    def knn_distances_all(
        self,
        k_max: int,
        memory_bound_bytes: int | None = None,
        workers: int = 1,
    ) -> np.ndarray:
        """Every k-th-NN distance column for k in [1, k_max], at once.

        Returns a ``(n, k_max)`` array whose column ``k - 1`` equals
        :func:`knn_distances_reference` at ``k`` — the k-th order
        statistic of a row is the same value whether it comes from a
        full sort or a selection, so the columns are bit-identical to
        the reference.  Each row block
        takes one ``kth=k_max`` partition and sorts only its rows'
        ``k_max + 1`` smallest values: O(n²) in all instead of the
        reference's O(n² log n) full sort per k.  Blocks hold at most
        :data:`SCAN_BLOCK_ROWS` rows and stay under *memory_bound_bytes*
        (the partition copies its block, so a full-matrix pass would
        transiently double the resident matrix); with *workers* > 1
        resolved threads they run on the pool when :func:`pool_workers`
        allows it, each under its share of the bound.

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
            block, used = _knn_rows(
                self.values, columns, 0, memory_bound_bytes, workers
            )
            span.set(block_rows=block, workers=used)
        self._knn_columns = columns
        return columns

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

    What an append does not change is kept: the segments' per-length
    blocks, and for every short width the window table of every longer
    segment (:class:`_KeptTable`), which an append extends by the
    windows of its new segments instead of rebuilding.  A window's mean
    does not depend on the table row that holds it and a minimum does
    not depend on order, so the cells are the bytes a rebuilt table
    gives.  The tables hold at most :data:`KEPT_TABLE_SHARE` of the
    backing's bytes; the largest are dropped past it.

    The live view is :attr:`matrix`; views handed out before an append
    stay valid (their old-vs-old cells are never rewritten), so a
    snapshot taken at n segments keeps describing those n segments.
    """

    def __init__(
        self,
        segments: list[UniqueSegment],
        penalty_factor: float = DEFAULT_PENALTY_FACTOR,
        options: MatrixBuildOptions | None = None,
        memory_bound_bytes: int | None = None,
    ) -> None:
        if options is None:
            options = MatrixBuildOptions()
        self.options = options
        self.penalty_factor = penalty_factor
        #: The working-set bound of the k-NN merge's row blocks.
        self.memory_bound_bytes = memory_bound_bytes
        segments = list(segments)
        built = DissimilarityMatrix.build(segments, penalty_factor, options)
        count = len(segments)
        capacity = max(1, count, int(count * RESERVE_FACTOR))
        self._backing = _allocate_values(capacity, options.dtype, options.storage)
        self._backing[:count, :count] = built.values
        self._count = count
        self._matrix = DissimilarityMatrix(
            segments=segments, values=self._backing[:count, :count]
        )
        self._matrix._knn_columns = built._knn_columns
        self._bins = _length_bins(segments)
        self._tables = _KeptTables()

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
            "matrix.append",
            old_segments=old_count,
            new_segments=added,
            backend="append",
            dtype=options.dtype,
        ) as span:
            self._ensure_capacity(count)
            values = self._backing[:count, :count]
            old_segments = self._matrix.segments
            new_bins = _length_bins(new_segments, offset=old_count)
            tables = self._tables
            tables.built = tables.windows_added = 0
            try:
                tasks = _append_tasks(self._bins, new_bins, tables)
                _compute_new_cells(
                    values, tasks, new_bins, self.penalty_factor, options, span
                )
            except BaseException:
                # The tables may already hold segments this append
                # does not commit.
                self._tables = _KeptTables()
                raise
            self._bins = _merged_bins(self._bins, new_bins)
            tables.evict(KEPT_TABLE_SHARE * self._backing.nbytes)
            span.set(
                tables=len(tables),
                tables_built=tables.built,
                windows_added=tables.windows_added,
                table_bytes=tables.nbytes,
            )

            merged_knn = self._merged_knn_columns(values, old_count, count)
            matrix = DissimilarityMatrix(
                segments=old_segments + new_segments, values=values
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
        :meth:`DissimilarityMatrix.knn_distances_all` would, on the
        matrix's workers.  Both are the same order statistics the batch
        path extracts, hence bit-identical; only O(n·(k+m)) work instead
        of O(n²).  Both keep their row blocks under the matrix's
        ``memory_bound_bytes``.
        """
        cached = self._matrix._knn_columns
        if cached is None:
            return None
        k = min(cached.shape[1], count - 1)
        if k < 1:
            return None
        bound = self.memory_bound_bytes
        workers = self.options.effective_workers()
        with get_tracer().span("matrix.knn_merge", k_max=k, rows=count):
            columns = np.empty((count, k), dtype=values.dtype)
            # A merged row costs its candidates plus the partition's copy.
            row_bytes = 2 * (k + count - old_count) * values.dtype.itemsize
            for start, stop in scan_blocks(0, old_count, row_bytes, bound, 1):
                columns[start:stop] = _smallest_sorted(
                    np.concatenate(
                        [cached[start:stop, :k], values[start:stop, old_count:count]],
                        axis=1,
                    ),
                    k,
                )
            _knn_rows(values[:count, :count], columns, old_count, bound, workers)
        return columns

    def replace_segments(self, segments: list[UniqueSegment]) -> DissimilarityMatrix:
        """Swap in refreshed segment objects without touching the values.

        The session uses this after merging occurrence lists: the byte
        values (and therefore every dissimilarity) must be unchanged,
        position by position — only metadata like occurrence tuples may
        differ.  The new view keeps the cached k-NN columns and
        auto-configurations, which read only values.
        """
        segments = list(segments)
        if len(segments) != self._count:
            raise ValueError(
                f"expected {self._count} replacement segments, got {len(segments)}"
            )
        for position, (old, new) in enumerate(zip(self._matrix.segments, segments)):
            if old is not new and old.data != new.data:
                raise ValueError(
                    f"replacement segment {position} changes the byte value"
                )
        matrix = DissimilarityMatrix(segments=segments, values=self._matrix.values)
        matrix._knn_columns = self._matrix._knn_columns
        matrix._autoconfigs = self._matrix._autoconfigs
        self._matrix = matrix
        return matrix
