"""Shared command-line plumbing for ``repro-analyze`` and ``repro-eval``.

Both CLIs take the same matrix-backend and observability flags; this
module owns them once, as an :mod:`argparse` *parent parser*
(:func:`backend_parent`), plus the helpers that turn parsed flags into
options and emit the observability artefacts after a run:

- ``--workers`` / ``--no-cache`` / ``--cache-dir`` / ``--matrix-dtype``
  / ``--matrix-memmap`` — the matrix execution backend (worker count:
  ``0`` = serial, ``N`` = exactly N, unset = all cores), on-disk cache,
  value dtype and storage; see
  :class:`repro.core.matrix.MatrixBuildOptions`;
- ``--memory-bound-mb`` — the post-matrix working-set bound;
  :meth:`repro.core.pipeline.ClusteringConfig.from_args` turns the
  whole group into one config;
- ``--lenient`` — quarantine malformed capture records instead of
  aborting the load (see :mod:`repro.errors`);
- ``--timings`` — per-stage wall-clock summary to stderr, a thin view
  over the run's span tree;
- ``--trace-out PATH`` — write the JSON run manifest (span tree +
  metrics snapshot + config fingerprint);
- ``--metrics-out PATH`` — write the metrics registry in Prometheus
  text exposition format.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.matrix import DTYPE_FLOAT64, DTYPES
from repro.core.matrixcache import cache_counters
from repro.errors import ingest_counters
from repro.obs.export import write_manifest, write_prometheus
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer

#: Longest request line ``repro-serve`` accepts by default (one chunk of
#: hex-encoded messages); longer lines drop the offending client.
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024


def service_parent() -> argparse.ArgumentParser:
    """Parent parser with the ``repro-serve`` hardening flags.

    Owned here next to :func:`backend_parent` so every service knob is
    declared in one place; :func:`repro.serve.service_options_from_args`
    translates the parsed flags into
    :class:`repro.serve.ServiceOptions`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    admission = parent.add_argument_group("admission control")
    admission.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded request-queue depth; further requests are rejected "
        "with a structured 'overloaded' error (default: 64)",
    )
    admission.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="per-client concurrent-request cap before 'overloaded' "
        "rejections (default: 8)",
    )
    admission.add_argument(
        "--append-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline per append op; on expiry the call is abandoned and "
        "the client gets 'deadline_exceeded' (default: unbounded)",
    )
    admission.add_argument(
        "--digest-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline per digest op (reconciling can recluster; default: "
        "unbounded)",
    )
    admission.add_argument(
        "--max-line-bytes",
        type=int,
        default=DEFAULT_MAX_LINE_BYTES,
        metavar="BYTES",
        help="longest accepted request line; longer lines drop the client "
        "(default: 64 MiB)",
    )
    lifecycle = parent.add_argument_group("lifecycle & durability")
    lifecycle.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="hard cap on the SIGTERM/SIGINT/shutdown drain phase before "
        "in-flight work is abandoned and the process exits (default: 10)",
    )
    lifecycle.add_argument(
        "--wal-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="compact the checkpoint WAL into a checksummed snapshot once "
        "it grows past this size; restart replays only the WAL tail "
        "(default: never compact)",
    )
    lifecycle.add_argument(
        "--max-rss-mb",
        type=int,
        default=None,
        metavar="MB",
        help="memory watchdog: refuse appends with 'resource_exhausted' "
        "once process RSS exceeds this (state/digest/health still "
        "served; default: no guard)",
    )
    observability = parent.add_argument_group("observability")
    observability.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the service metrics in Prometheus text format on exit",
    )
    return parent


def backend_parent() -> argparse.ArgumentParser:
    """Parent parser with the flags both CLIs share (``add_help=False``)."""
    parent = argparse.ArgumentParser(add_help=False)
    backend = parent.add_argument_group("matrix backend")
    backend.add_argument(
        "--workers",
        type=int,
        default=None,
        help="dissimilarity-matrix workers: 0 forces the serial path, "
        "N>=1 uses exactly N workers (default: all CPU cores)",
    )
    backend.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk dissimilarity-matrix cache",
    )
    backend.add_argument(
        "--cache-dir",
        default=None,
        help="matrix cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    backend.add_argument(
        "--matrix-dtype",
        choices=DTYPES,
        default=DTYPE_FLOAT64,
        help="dissimilarity value dtype: 'float64' (default) or 'float32' "
        "(halves matrix memory; keys a separate cache entry)",
    )
    backend.add_argument(
        "--matrix-memmap",
        action="store_true",
        help="back the dissimilarity matrix with an anonymous disk memmap "
        "instead of RAM (for traces whose matrix exceeds memory)",
    )
    backend.add_argument(
        "--memory-bound-mb",
        type=int,
        default=None,
        metavar="MB",
        help="working-set budget for the post-matrix blockwise scans "
        "(k-NN extraction, DBSCAN neighborhoods, refinement; default: 256)",
    )
    ingest = parent.add_argument_group("fault tolerance")
    ingest.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine malformed capture records instead of aborting; "
        "salvages everything before the first corruption",
    )
    observability = parent.add_argument_group("observability")
    observability.add_argument(
        "--timings",
        action="store_true",
        help="print per-stage timings and cache counters to stderr",
    )
    observability.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the JSON run manifest (span tree + metrics + config)",
    )
    observability.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write metrics in Prometheus text format",
    )
    return parent


def print_timings(tracer: Tracer, metrics: MetricsRegistry) -> None:
    """``--timings`` view: stage wall clock + cache counters, to stderr.

    Reads the same span tree the run manifest serializes, so the quick
    stderr summary and the JSON artefact can never disagree.
    """
    timings = tracer.stage_timings()
    if timings:
        stages = " ".join(
            f"{name}={1e3 * seconds:.1f}ms" for name, seconds in timings.items()
        )
        print(f"timings: {stages}", file=sys.stderr)
    for span in tracer.find("matrix.build"):
        attributes = span.attributes
        print(
            f"matrix: backend={attributes.get('backend')} "
            f"workers={attributes.get('workers')} "
            f"cache_hit={attributes.get('cache_hit')}",
            file=sys.stderr,
        )
    with use_metrics(metrics):
        counters = cache_counters()
        ingest = ingest_counters()
    print(
        f"matrix cache: hits={counters['hits']} misses={counters['misses']} "
        f"stores={counters['stores']}",
        file=sys.stderr,
    )
    if any(ingest.values()):
        print(
            f"ingest: ok={ingest['ok']} quarantined={ingest['quarantined']} "
            f"salvaged_tail={ingest['salvaged_tail']} "
            f"unparsed_frames={ingest['unparsed_frames']}",
            file=sys.stderr,
        )


def emit_observability(
    args,
    tracer: Tracer,
    metrics: MetricsRegistry,
    config=None,
    meta: dict | None = None,
) -> None:
    """Honor ``--timings`` / ``--trace-out`` / ``--metrics-out`` after a run."""
    if args.timings:
        print_timings(tracer, metrics)
    if args.trace_out:
        path = write_manifest(args.trace_out, tracer, metrics, config, meta)
        print(f"run manifest written to {path}")
    if args.metrics_out:
        path = write_prometheus(args.metrics_out, metrics)
        print(f"metrics written to {path}")
