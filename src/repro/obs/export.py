"""Run manifests and Prometheus exposition for tracer + metrics data.

A *run manifest* is the JSON artefact one pipeline invocation leaves
behind: the full span tree, a metrics snapshot, and a fingerprint of
the configuration that produced them.  The schema is versioned and
validated by :func:`validate_manifest`, and the benchmark harness emits
its JSON from the same structure, so perf numbers across PRs stay
comparable.

Manifest layout (``schema`` = ``repro.run-manifest/v1``)::

    {
      "schema": "repro.run-manifest/v1",
      "schema_version": 1,
      "created_unix": 1700000000.0,
      "meta": {...},                      # free-form caller context
      "config": {...} | null,             # JSON image of the config
      "config_fingerprint": "sha256-hex" | null,
      "spans": [<span node>, ...],        # repro.obs.tracer.Span.to_dict
      "metrics": {<name>: {...}, ...}     # MetricsRegistry.snapshot
    }

:func:`prometheus_text` serializes a registry in the Prometheus text
exposition format (``# HELP`` / ``# TYPE`` comments, ``le``-bucketed
histograms); :func:`parse_prometheus_text` is the matching minimal
parser used by tests and by tooling that wants the numbers back
without a Prometheus server.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import time
from pathlib import Path

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer

MANIFEST_SCHEMA = "repro.run-manifest/v1"
MANIFEST_SCHEMA_VERSION = 1

_SPAN_REQUIRED_KEYS = {
    "name",
    "started_unix",
    "wall_seconds",
    "cpu_seconds",
    "status",
    "attributes",
    "children",
}
_MANIFEST_REQUIRED_KEYS = {
    "schema",
    "schema_version",
    "created_unix",
    "config",
    "config_fingerprint",
    "spans",
    "metrics",
}


def _at_default(instance, field: dataclasses.Field) -> bool:
    if field.default is not dataclasses.MISSING:
        default = field.default
    elif field.default_factory is not dataclasses.MISSING:
        default = field.default_factory()
    else:
        return False
    value = getattr(instance, field.name)
    # Same type too: ``1`` and ``1.0`` have different JSON images.
    return type(value) is type(default) and value == default


def jsonable(value, *, defaults: bool = True):
    """Best-effort conversion of config-ish objects to JSON-ready data.

    With ``defaults=False`` a dataclass field equal to its default is
    left out, at every depth (the image :func:`config_fingerprint`
    hashes).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name), defaults=defaults)
            for f in dataclasses.fields(value)
            if defaults or not _at_default(value, f)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v, defaults=defaults) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonable(v, defaults=defaults) for v in value]
        return sorted(items, key=str) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(config) -> str:
    """Stable SHA-256 over the JSON image of a configuration object.

    A dataclass field equal to its default adds nothing to the hash,
    nested options included, so adding or deleting a defaulted field
    keeps every fingerprint that does not set it.  Two runs share a
    fingerprint iff their configs set the same fields to the same
    values, so manifests from different machines/orderings compare.
    Data without dataclasses (the sweep fingerprint's plain dict)
    hashes exactly as it always did.
    """
    payload = json.dumps(
        jsonable(config, defaults=False), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256()
    digest.update(b"repro-config-v1\0")
    digest.update(payload.encode())
    return digest.hexdigest()


def run_manifest(
    tracer: Tracer,
    metrics: MetricsRegistry | None = None,
    config=None,
    meta: dict | None = None,
) -> dict:
    """Assemble the JSON run manifest for one traced run."""
    return {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "config": jsonable(config) if config is not None else None,
        "config_fingerprint": config_fingerprint(config) if config is not None else None,
        "spans": [span.to_dict() for span in tracer.roots],
        "metrics": metrics.snapshot() if metrics is not None else {},
    }


def _validate_span(node, path: str, errors: list[str]) -> None:
    if not isinstance(node, dict):
        errors.append(f"{path}: span node is not an object")
        return
    missing = _SPAN_REQUIRED_KEYS - node.keys()
    if missing:
        errors.append(f"{path}: missing span keys {sorted(missing)}")
        return
    if not isinstance(node["name"], str) or not node["name"]:
        errors.append(f"{path}: span name must be a non-empty string")
    if node["status"] not in ("ok", "error"):
        errors.append(f"{path}: invalid status {node['status']!r}")
    for key in ("started_unix", "wall_seconds", "cpu_seconds"):
        if not isinstance(node[key], (int, float)):
            errors.append(f"{path}: {key} must be numeric")
    if not isinstance(node["attributes"], dict):
        errors.append(f"{path}: attributes must be an object")
    if not isinstance(node["children"], list):
        errors.append(f"{path}: children must be an array")
        return
    for index, child in enumerate(node["children"]):
        _validate_span(child, f"{path}.children[{index}]", errors)


def validate_manifest(manifest) -> dict:
    """Schema-check a manifest; returns it, or raises ValueError."""
    errors: list[str] = []
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not an object")
    missing = _MANIFEST_REQUIRED_KEYS - manifest.keys()
    if missing:
        errors.append(f"missing manifest keys {sorted(missing)}")
    else:
        if manifest["schema"] != MANIFEST_SCHEMA:
            errors.append(f"unknown schema {manifest['schema']!r}")
        if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
            errors.append(f"unknown schema_version {manifest['schema_version']!r}")
        if not isinstance(manifest["spans"], list):
            errors.append("spans must be an array")
        else:
            for index, node in enumerate(manifest["spans"]):
                _validate_span(node, f"spans[{index}]", errors)
        if not isinstance(manifest["metrics"], dict):
            errors.append("metrics must be an object")
    if errors:
        raise ValueError("invalid run manifest: " + "; ".join(errors))
    return manifest


def write_manifest(
    path: str | Path,
    tracer: Tracer,
    metrics: MetricsRegistry | None = None,
    config=None,
    meta: dict | None = None,
) -> Path:
    """Validate and write the run manifest as JSON; returns the path."""
    manifest = validate_manifest(run_manifest(tracer, metrics, config, meta))
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Serialize a registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for instrument in metrics.instruments():
        if instrument.help:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, Histogram):
            for key in sorted(instrument.label_sets()):
                labels = dict(key)
                series = instrument.snapshot(**labels)
                for bound, count in zip(instrument.bounds, series["buckets"]):
                    lines.append(
                        f"{instrument.name}_bucket"
                        f"{_format_labels(labels, {'le': _format_value(bound)})}"
                        f" {count}"
                    )
                lines.append(
                    f"{instrument.name}_bucket"
                    f"{_format_labels(labels, {'le': '+Inf'})} {series['count']}"
                )
                lines.append(
                    f"{instrument.name}_sum{_format_labels(labels)}"
                    f" {_format_value(series['sum'])}"
                )
                lines.append(
                    f"{instrument.name}_count{_format_labels(labels)}"
                    f" {series['count']}"
                )
        else:
            for key in sorted(instrument.label_sets()):
                labels = dict(key)
                lines.append(
                    f"{instrument.name}{_format_labels(labels)}"
                    f" {_format_value(instrument.value(**labels))}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(path: str | Path, metrics: MetricsRegistry) -> Path:
    """Write the registry as a Prometheus text file; returns the path."""
    path = Path(path)
    path.write_text(prometheus_text(metrics))
    return path


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_LABEL_ESCAPE = re.compile(r"\\(.)")
_UNESCAPED = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape_label(value: str) -> str:
    """Decode each ``\\\\``, ``\\"`` and ``\\n`` escape once, left to right."""
    return _LABEL_ESCAPE.sub(
        lambda match: _UNESCAPED.get(match.group(1), match.group(0)), value
    )


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple], float]:
    """Parse exposition text into ``{(name, sorted_labels): value}``.

    Strict enough to validate our own output (tests round-trip through
    it); raises ValueError on any malformed sample line.
    """
    samples: dict[tuple[str, tuple], float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (name, _unescape_label(value))
                for name, value in _LABEL_PAIR.findall(labels_text)
            )
        )
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"line {line_number}: bad sample value {raw_value!r}"
            ) from exc
        samples[(match.group("name"), labels)] = value
    return samples
