"""Shared memory-bound plumbing for the post-matrix pipeline stages.

The dissimilarity-matrix kernel already tiles its temporaries to a fixed
budget; the stages *after* the matrix (k-NN extraction for Algorithm 1,
DBSCAN's epsilon-neighborhoods, refinement's cross-cluster scans) used
to materialize their own n×n intermediates instead.  This module owns
the one knob they now share: a byte budget that each blockwise scan
stays under, so peak memory beyond the matrix itself is bounded and
configurable (``--memory-bound-mb`` on the CLIs,
:attr:`repro.core.pipeline.ClusteringConfig.memory_bound_bytes` in the
library).

The bound is a *working-set* budget for per-block temporaries, not a
cap on outputs whose size is data-dependent (e.g. a CSR adjacency over
a dense epsilon-graph is as large as the graph).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

try:  # pragma: no cover - absent only on non-unix platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Default per-stage working-set budget: 256 MiB of block temporaries.
DEFAULT_MEMORY_BOUND_BYTES = 256 * 1024 * 1024


def resolve_bound(bound_bytes: int | None) -> int:
    """The effective byte budget (None means the default bound)."""
    return DEFAULT_MEMORY_BOUND_BYTES if bound_bytes is None else int(bound_bytes)


def divide_bound(bound: int, workers: int) -> int:
    """Split a working-set budget evenly across parallel workers.

    The threaded matrix scheduler divides the kernel's temporary budget
    (:data:`repro.core.canberra.CHUNK_CELL_BUDGET`) by the worker count
    so that N concurrent tiles together stay inside the same bound one
    inline chunk uses.  Generic over the budget's unit (bytes,
    cells); every worker gets at least 1.
    """
    return max(1, int(bound) // max(1, int(workers)))


def rows_per_block(
    row_bytes: int, bound_bytes: int | None = None, copies: int = 1
) -> int:
    """Rows of a row-major scan that fit the bound (always >= 1).

    *row_bytes* is the footprint of one row across every simultaneous
    temporary; *copies* multiplies it for operations that hold several
    block-sized arrays at once (e.g. ``np.partition`` working on a
    copy of its input block).
    """
    bound_bytes = resolve_bound(bound_bytes)
    return max(1, bound_bytes // max(1, int(row_bytes) * max(1, int(copies))))


def current_rss_bytes() -> int | None:
    """The process's *current* resident set size in bytes, or None.

    The working-set budgets above bound planned temporaries; the
    long-running service additionally needs the observed footprint to
    decide when to stop accepting work.  Linux reports it live via
    ``/proc/self/statm``; elsewhere the peak RSS from ``getrusage`` is
    the best available stand-in (monotone, so a guard built on it trips
    conservatively and never untrips).
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    if _resource is None:  # pragma: no cover - non-unix
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS, KiB on Linux
        return int(peak)
    return int(peak) * 1024


@dataclass
class MemoryGuard:
    """Trip-wire over process RSS for the service's degraded mode.

    ``limit_bytes=None`` never trips.  The guard is stateless — each
    :meth:`exceeded` call re-reads the current RSS — so a footprint
    that shrinks back under the limit (matrix memmap storage, dropped
    caches) automatically restores normal admission.
    """

    limit_bytes: int | None = None

    def rss_bytes(self) -> int | None:
        return current_rss_bytes()

    def exceeded(self) -> bool:
        if self.limit_bytes is None:
            return False
        rss = current_rss_bytes()
        return rss is not None and rss > self.limit_bytes
