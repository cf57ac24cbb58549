"""Process-local metrics registry: counters, gauges, histograms.

The pipeline and its substrates record bounded-cardinality metrics —
per-span durations, matrix cache hits/misses, cluster sizes, ingest,
session and service counters — into a :class:`MetricsRegistry`.  What a
layer did and how long it took is its span's record; the tracer adds
every closed span to ``repro_span_seconds``, and a metric here carries
only what no span holds.  Instruments
follow Prometheus conventions (``*_total`` counter suffix, ``le``
histogram buckets) so :func:`repro.obs.export.prometheus_text` can dump
the registry in the text exposition format without translation.

Like the tracer, the active registry is a :mod:`contextvars` binding:
:func:`get_metrics` inside library code picks up whatever
:func:`use_metrics` scope the caller established.  With nothing bound
there is no process-wide registry: :func:`get_metrics` returns a fresh
one that nothing keeps, so what library code records outside a binding
is dropped, and no call can see another's counts.

Labels are passed as keyword arguments and stored per sorted label set::

    registry.counter("repro_matrix_cache_hits_total").inc()
    registry.gauge("repro_session_wal_bytes").set(4096)
    registry.histogram("repro_span_seconds").observe(0.12, span="matrix", status="ok")
"""

from __future__ import annotations

import contextvars
import re
from contextlib import contextmanager
from typing import Iterator

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Seconds-oriented default histogram buckets (Prometheus defaults).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    for name in labels:
        if not _LABEL_NAME.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class _Instrument:
    """Shared bookkeeping for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    def label_sets(self) -> list[LabelKey]:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count (Prometheus ``counter``)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add *amount* (>= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def label_sets(self) -> list[LabelKey]:
        return list(self._values)


class Gauge(_Instrument):
    """Point-in-time value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def label_sets(self) -> list[LabelKey]:
        return list(self._values)


class Histogram(_Instrument):
    """Cumulative-bucket distribution (Prometheus ``histogram``)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        #: per label set: (per-bound counts, sum, count)
        self._series: dict[LabelKey, dict] = {}

    def _series_for(self, key: LabelKey) -> dict:
        if key not in self._series:
            self._series[key] = {
                "buckets": [0] * len(self.bounds),
                "sum": 0.0,
                "count": 0,
            }
        return self._series[key]

    def observe(self, value: float, **labels) -> None:
        """Record one observation into every bucket it falls under."""
        series = self._series_for(_label_key(labels))
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                series["buckets"][index] += 1
        series["sum"] += float(value)
        series["count"] += 1

    def snapshot(self, **labels) -> dict:
        """Cumulative bucket counts + sum + count for one label set."""
        series = self._series_for(_label_key(labels))
        return {
            "buckets": list(series["buckets"]),
            "sum": series["sum"],
            "count": series["count"],
        }

    def label_sets(self) -> list[LabelKey]:
        return list(self._series)


class MetricsRegistry:
    """Get-or-create store of instruments, keyed by metric name."""

    def __init__(self):
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help=help, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram *name* (buckets fixed at creation)."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def instruments(self) -> Iterator[_Instrument]:
        """All registered instruments in name order."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument (the manifest's metrics key)."""
        out: dict[str, dict] = {}
        for instrument in self.instruments():
            series = []
            for key in sorted(instrument.label_sets()):
                labels = dict(key)
                if isinstance(instrument, Histogram):
                    data = instrument.snapshot(**labels)
                    series.append(
                        {
                            "labels": labels,
                            "bounds": list(instrument.bounds),
                            **data,
                        }
                    )
                else:
                    series.append(
                        {"labels": labels, "value": instrument.value(**labels)}
                    )
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "series": series,
            }
        return out


_ACTIVE: contextvars.ContextVar[MetricsRegistry | None] = contextvars.ContextVar(
    "repro_active_metrics", default=None
)


def get_metrics() -> MetricsRegistry:
    """The registry bound to the current context; with none bound, a
    fresh registry that nothing keeps."""
    registry = _ACTIVE.get()
    return registry if registry is not None else MetricsRegistry()


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Bind *registry* as the active registry for the enclosed block."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)
