"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into the
library's public functions; nothing inside ``src/`` is instrumented.
Each span keeps its name, op id, parent, start and end (seconds since
the recorder was created), wall and CPU seconds, and the rise in the
process's peak resident set (``VmHWM``) while it was open.  Spans stay in memory and
are written once, by :meth:`SpanRecorder.dump`, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


def cpu_seconds() -> float:
    """User + system CPU of this process, all threads included."""
    return time.process_time()


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process since its last reset, in MiB."""
    return proc_status_mib("VmHWM", pid)


def proc_status_mib(field: str, pid: int | str = "self") -> float:
    """A memory field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set, so
    each pass reports its own peak rather than the run's."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


class SpanRecorder:
    """Nested spans for one process, grouped by op id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: str, **attrs):
        """Time the body as span *name* of op *op*; yields its attribute dict."""
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "name": name, "op": op, "parent": parent}
        record["attrs"] = dict(attrs)
        self.spans.append(record)
        self._stack.append(record)
        rss0 = peak_rss_mib()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            end = time.perf_counter()
            record["start"] = start - self._origin
            record["end"] = end - self._origin
            record["wall_s"] = end - start
            record["cpu_s"] = cpu_seconds() - cpu0
            record["rss_rise_mib"] = peak_rss_mib() - rss0
            self._stack.pop()

    def annotate(self, op: str, name: str, **attrs) -> None:
        """Add attributes to op *op*'s latest span called *name*."""
        for record in reversed(self.spans):
            if record["op"] == op and record["name"] == name:
                record["attrs"].update(attrs)
                return
        raise KeyError(f"no span {name!r} in op {op!r}")

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_seconds(self, record: dict) -> float:
        """Duration minus the time its (sequential) children cover."""
        return record["wall_s"] - sum(c["wall_s"] for c in self.children(record["id"]))

    def roots(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None]

    def dump(self, path: Path, run_info: dict) -> None:
        """Write every span, with its self time, as one JSON document."""
        for record in self.spans:
            record["self_s"] = self.self_seconds(record)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": run_info, "spans": self.spans}) + "\n")


def layer_totals(recorder: SpanRecorder, layers: tuple[str, ...]) -> dict:
    """Per-layer wall/CPU/RSS sums over the direct children of every op span.

    Returns ``{"op_wall_s": ..., "covered_s": ..., layer: {...}}`` where
    *covered_s* is the wall time the top-level layer spans cover.
    """
    totals = {
        layer: {"wall_s": 0.0, "cpu_s": 0.0, "rss_rise_mib": 0.0, "calls": 0}
        for layer in layers
    }
    op_wall = covered = 0.0
    for op_span in recorder.roots():
        op_wall += op_span["wall_s"]
        for child in recorder.children(op_span["id"]):
            covered += child["wall_s"]
            entry = totals.get(child["name"])
            if entry is None:
                continue
            entry["wall_s"] += child["wall_s"]
            entry["cpu_s"] += child["cpu_s"]
            entry["rss_rise_mib"] += child["rss_rise_mib"]
            entry["calls"] += 1
    return {"op_wall_s": op_wall, "covered_s": covered, "layers": totals}
