"""Structured observability: spans, metrics, and run manifests.

Every pipeline stage (segment → matrix → autoconf → dbscan → refine)
reports into this package:

- :mod:`repro.obs.tracer` — nestable spans recording wall clock, CPU
  time, peak RSS and size/outcome attributes per stage, bound to the
  current context via :func:`use_tracer` / :func:`get_tracer`.  Spans
  are the one record of what a layer did and how long it took: every
  closed span also lands in the ``repro_span_seconds{span, status}``
  histogram;
- :mod:`repro.obs.metrics` — a Prometheus-convention registry of
  counters, gauges, and histograms for what no span holds (cluster
  sizes, ingest, session and service counters);
- :mod:`repro.obs.export` — the versioned JSON *run manifest* (span
  tree + metrics snapshot + config fingerprint) and the Prometheus
  text dump behind the CLIs' ``--trace-out`` / ``--metrics-out``.

The package depends only on the standard library so any layer of the
codebase can instrument itself without import cycles.
"""

from repro.obs.export import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    config_fingerprint,
    parse_prometheus_text,
    prometheus_text,
    run_manifest,
    validate_manifest,
    write_manifest,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    use_metrics,
)
from repro.obs.tracer import Span, Tracer, get_tracer, peak_rss_kib, use_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "config_fingerprint",
    "get_metrics",
    "get_tracer",
    "parse_prometheus_text",
    "peak_rss_kib",
    "prometheus_text",
    "run_manifest",
    "use_metrics",
    "use_tracer",
    "validate_manifest",
    "write_manifest",
    "write_prometheus",
]
