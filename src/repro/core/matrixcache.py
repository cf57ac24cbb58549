"""Content-addressed on-disk cache for dissimilarity matrices.

Every benchmark and repeated pipeline run recomputes the identical
O(n²) Canberra matrix for the same trace.  This module keys a finished
matrix by a SHA-256 over the *sorted* unique-segment byte values plus
the penalty factor, the value dtype, and a format version, and stores
it as a compressed ``.npz`` next to nothing else the pipeline owns:

- location: ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``;
- key: ``sha256(version || "binned" || dtype || penalty || len(data)||data ...)``
  over the values in sorted order, so the key is independent of segment
  order (the caller permutes rows back to its own order);
- invalidation: bump :data:`CACHE_FORMAT_VERSION` whenever the matrix
  semantics change — old entries simply stop being addressed;
- integrity: every entry embeds a SHA-256 checksum over its payload
  (:func:`matrix_checksum`), verified on load — bit flips and truncated
  writes are deleted and recomputed instead of being trusted.

Hit/miss/store counters live in the active
:class:`repro.obs.metrics.MetricsRegistry` (``repro_matrix_cache_*``),
so they appear in run manifests and Prometheus dumps alongside every
other pipeline metric; :func:`cache_counters` stays as the historical
dict-shaped view over the same counters.  With no registry bound
nothing keeps them, and :func:`cache_counters` reads zeros.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zipfile
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib import format as npy_format

from repro.errors import CacheError
from repro.obs.metrics import Counter, get_metrics

#: Bump to invalidate every existing cache entry (schema or semantics
#: changes in the matrix computation).  v2 added the payload checksum;
#: v3 keys the compute kernel (binned vs pairwise) after the kernel
#: rewrite, so entries produced by one kernel are never served to a
#: build requesting the other; v4 keys the value dtype (float64 vs
#: float32 storage mode) so a half-precision matrix is never served to
#: a build expecting the bit-exact reference, and entries preserve
#: their stored dtype on load.
CACHE_FORMAT_VERSION = 4

#: The compute-kernel tag every key still hashes.  Only the binned
#: kernel fills matrices now (the per-pair oracle is a test function),
#: so the tag is a constant; keeping its bytes keeps every v4 entry
#: addressable.
_KERNEL_TAG = b"binned"

HITS_METRIC = "repro_matrix_cache_hits_total"
MISSES_METRIC = "repro_matrix_cache_misses_total"
STORES_METRIC = "repro_matrix_cache_stores_total"
CORRUPT_METRIC = "repro_matrix_cache_corrupt_total"

_METRIC_HELP = {
    HITS_METRIC: "Dissimilarity-matrix on-disk cache hits.",
    MISSES_METRIC: "Dissimilarity-matrix on-disk cache misses.",
    STORES_METRIC: "Dissimilarity matrices persisted to the on-disk cache.",
    CORRUPT_METRIC: "Cache entries rejected as corrupt and deleted.",
}


def declare_cache_metrics() -> dict[str, Counter]:
    """Materialize the cache counters (at zero) in the active registry."""
    counters = {}
    for name, help_text in _METRIC_HELP.items():
        counter = get_metrics().counter(name, help=help_text)
        counter.inc(0.0)
        counters[name] = counter
    return counters


def cache_counters() -> dict[str, int]:
    """Dict-shaped snapshot of the hit/miss/store counters."""
    counters = declare_cache_metrics()
    return {
        "hits": int(counters[HITS_METRIC].value()),
        "misses": int(counters[MISSES_METRIC].value()),
        "stores": int(counters[STORES_METRIC].value()),
    }


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def matrix_cache_key(
    sorted_datas: Iterable[bytes],
    penalty_factor: float,
    dtype: str = "float64",
) -> str:
    """SHA-256 key over sorted values + penalty + dtype + version.

    *sorted_datas* must already be in canonical (byte-sorted) order; each
    value is length-prefixed so concatenation is unambiguous.  *dtype*
    names the stored value precision: a float32 entry must never satisfy
    a float64 build.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-matrix-v{CACHE_FORMAT_VERSION}\0".encode())
    digest.update(_KERNEL_TAG + b"\0")
    digest.update(dtype.encode() + b"\0")
    digest.update(struct.pack("<d", float(penalty_factor)))
    for data in sorted_datas:
        digest.update(struct.pack("<Q", len(data)))
        digest.update(data)
    return digest.hexdigest()


def canonical_order_key(
    datas: list[bytes],
    penalty_factor: float,
    dtype: str = "float64",
) -> tuple[str, list[int]]:
    """Cache key plus the byte-sorting permutation that canonicalizes it.

    One call replaces the sort + :func:`matrix_cache_key` pair every
    caller needs: *order* maps canonical position → caller position, so
    ``values.take(order, axis=0).take(order, axis=1)`` is the
    canonical-order matrix to store and the inverse permutation restores
    a loaded one.
    """
    order = sorted(range(len(datas)), key=datas.__getitem__)
    key = matrix_cache_key((datas[i] for i in order), penalty_factor, dtype=dtype)
    return key, order


def cache_path(key: str, cache_dir: str | Path | None = None) -> Path:
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return directory / f"matrix-{key}.npz"


def matrix_checksum(values: np.ndarray) -> str:
    """SHA-256 over the matrix payload (shape + raw value bytes, read in place)."""
    digest = hashlib.sha256()
    digest.update(b"repro-matrix-payload-v2\0")
    digest.update(struct.pack("<QQ", *values.shape))
    digest.update(np.ascontiguousarray(values))
    return digest.hexdigest()


def _load_verified(path: Path) -> np.ndarray:
    """Read and checksum-verify one entry; raises CacheError if invalid."""
    try:
        with np.load(path) as archive:
            # Preserve the stored dtype: the cache key names it, so a
            # float32 entry only ever answers a float32 build.
            values = np.asarray(archive["values"])
            stored = str(archive["checksum"])
    except FileNotFoundError:
        raise
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as error:
        raise CacheError(f"unreadable cache entry {path.name}: {error}") from error
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise CacheError(f"cache entry {path.name} has shape {values.shape}")
    if matrix_checksum(values) != stored:
        raise CacheError(f"cache entry {path.name} failed checksum verification")
    return values


def load_matrix(key: str, cache_dir: str | Path | None = None) -> np.ndarray | None:
    """Load the canonical-order matrix for *key*, or None on a miss.

    Every entry carries a checksum over its payload; corrupt, truncated,
    or bit-flipped entries are detected, deleted, and counted as misses
    (plus ``repro_matrix_cache_corrupt_total``) so the next build
    recomputes and overwrites them rather than trusting damaged values.
    """
    path = cache_path(key, cache_dir)
    try:
        values = _load_verified(path)
    except FileNotFoundError:
        get_metrics().counter(MISSES_METRIC, help=_METRIC_HELP[MISSES_METRIC]).inc()
        return None
    except CacheError:
        try:
            path.unlink()
        except OSError:
            pass
        get_metrics().counter(CORRUPT_METRIC, help=_METRIC_HELP[CORRUPT_METRIC]).inc()
        get_metrics().counter(MISSES_METRIC, help=_METRIC_HELP[MISSES_METRIC]).inc()
        return None
    get_metrics().counter(HITS_METRIC, help=_METRIC_HELP[HITS_METRIC]).inc()
    return values


def _write_npz(handle, values: np.ndarray) -> None:
    """The ``np.savez(handle, values=..., checksum=...)`` archive, with
    the values' ``.npy`` payload written from the array's own buffer:
    ``np.savez`` copies it out in 16 MiB chunks, which would add half
    an SMB-240 matrix to the peak of every store.

    Uncompressed on purpose: dissimilarity values are near-incompressible
    float64 noise, and warm-cache loads should cost a read, not a
    decompress.
    """
    values = np.ascontiguousarray(values)
    with zipfile.ZipFile(
        handle, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        with archive.open("values.npy", "w", force_zip64=True) as entry:
            npy_format.write_array_header_1_0(
                entry, npy_format.header_data_from_array_1_0(values)
            )
            entry.write(values.data)
        with archive.open("checksum.npy", "w", force_zip64=True) as entry:
            npy_format.write_array(entry, np.array(matrix_checksum(values)))


def store_matrix(
    key: str, values: np.ndarray, cache_dir: str | Path | None = None
) -> Path | None:
    """Atomically persist a canonical-order matrix; None if unwritable."""
    path = cache_path(key, cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                _write_npz(handle, values)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    except OSError:
        # A read-only or full cache directory must never fail the build.
        return None
    get_metrics().counter(STORES_METRIC, help=_METRIC_HELP[STORES_METRIC]).inc()
    return path
