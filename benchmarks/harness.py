"""One harness for the per-layer benchmarks (``bench_*.py``).

A script describes its cases; each case runs its stages through
:class:`Case`, whose own :class:`~repro.obs.tracer.Tracer` holds one
span per stage with the library's spans nested under it.  The case's
row of the committed baseline (schema :data:`SCHEMA`) is read from that
span tree:

- ``seconds``: wall seconds per span name, summed over repeats
  (:meth:`Tracer.stage_timings`): the script's stages and the library's
  layers, the same spans a ``--trace-out`` manifest holds;
- ``counts``: the library spans' work attributes (:data:`WORK`), summed
  over the case, plus the case's deterministic outputs;
- ``ratios``: same-run ratios of a slow stage (an oracle) over a fast
  one;
- ``recorded``: what the run measured that no check reads (RSS, rates,
  timing-dependent outcomes).

:func:`run` runs a script's cases and writes its baseline, keeping the
committed rows the run did not measure.  With ``--check`` it writes
nothing and compares each case's ``counts`` exactly with the committed
row instead.  A ratio under its floor fails any run, but only where its
fast side ran at least :data:`RATIO_MIN_SECONDS`: below that the
timer's noise decides, so the ratio is only recorded.  No check
compares seconds, which measure the host as much as the code; a slower
constant factor with unchanged work is the end-to-end benchmark's to
catch (``perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy.interpolate  # noqa: F401

# Algorithm 1 imports scipy's spline module on first use; importing it
# above, before any case runs, keeps that one-off cost out of the first
# stage that clusters.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions  # noqa: E402
from repro.obs.tracer import Tracer, use_tracer  # noqa: E402

SCHEMA = "repro.bench/v1"

#: The least seconds a ratio's fast side must run for its floor to gate.
RATIO_MIN_SECONDS = 0.010

#: The library spans' work attributes that a case's ``counts`` sum.
WORK = {
    "matrix.build": ("tasks", "tables_built", "pairs"),
    "matrix.bin": ("cells", "pairs", "windows", "unique_windows"),
    "matrix.append": ("tables_built", "windows_added"),
    "msgtypes.similarity": ("pairs", "cells", "padded_cells"),
    "dbscan.neighborhoods": ("edges", "core"),
    "refine": ("pairs", "merges", "splits"),
}


class Case:
    """One benchmark case: its stages' span tree, outputs and ratios.

    Scripts add the case's deterministic outputs (integers or labels) to
    :attr:`counts` and what no check reads to :attr:`recorded`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.tracer = Tracer()
        self.counts: dict = {}
        self.ratios: dict = {}
        self.recorded: dict = {}
        self.failures: list[str] = []

    def stage(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span *name*; returns its result.

        A stage may not share its name with a span inside it: the two
        would sum into one ``seconds`` entry.
        """
        with use_tracer(self.tracer), self.tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if any(inner.name == name for inner in list(span.walk())[1:]):
            raise ValueError(f"stage {name!r} shadows a library span of that name")
        return result

    def ratio(self, slow: str, fast: str, floor: float | None = None) -> float:
        """Record ``slow / fast`` seconds; below *floor* the case fails,
        where *fast* ran at least :data:`RATIO_MIN_SECONDS`."""
        seconds = self.tracer.stage_timings()
        value = seconds[slow] / max(seconds[fast], 1e-9)
        self.ratios[f"{slow}/{fast}"] = round(value, 2)
        if floor is not None and value < floor and seconds[fast] >= RATIO_MIN_SECONDS:
            self.failures.append(
                f"{self.name}: {slow}/{fast} is {value:.2f}x ({fast} took "
                f"{seconds[fast]:.3f}s), floor {floor}x"
            )
        return value

    def row(self) -> dict:
        """The case's baseline row."""
        counts: dict[str, int] = {}
        for span in self.tracer.walk():
            for attribute in WORK.get(span.name, ()):
                if attribute in span.attributes:
                    key = f"{span.name}.{attribute}"
                    counts[key] = counts.get(key, 0) + int(span.attributes[attribute])
        return {
            "case": self.name,
            "seconds": {
                name: round(value, 4)
                for name, value in self.tracer.stage_timings().items()
            },
            "counts": {**counts, **self.counts},
            "ratios": self.ratios,
            "recorded": self.recorded,
            "host": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpus": MatrixBuildOptions().effective_workers(),
            },
        }


def traced_build(segments, options=None):
    """``DissimilarityMatrix.build`` and its ``matrix.build`` span's
    attributes (the build's one record: backend, workers, tiles, ...)."""
    tracer = Tracer()
    with use_tracer(tracer):
        matrix = DissimilarityMatrix.build(segments, options=options)
    (span,) = tracer.find("matrix.build")
    return matrix, span.attributes


def parser(doc: str, sizes=None, protocols=None) -> argparse.ArgumentParser:
    """The scripts' command line: ``--check``, and ``--sizes`` and
    ``--protocols`` where a script takes them."""
    command = argparse.ArgumentParser(description=doc.splitlines()[0])
    if sizes:
        command.add_argument(
            "--sizes",
            type=int,
            nargs="+",
            default=list(sizes),
            help=f"sizes to benchmark (default: {sizes})",
        )
    if protocols:
        command.add_argument(
            "--protocols",
            nargs="+",
            default=list(protocols),
            choices=list(protocols),
            help=f"protocol models to benchmark (default: {protocols})",
        )
    command.add_argument(
        "--check",
        action="store_true",
        help="compare each case's work counts with the committed baseline "
        "instead of rewriting it",
    )
    return command


def write(path: Path, rows: list[dict]) -> None:
    """Write *rows* to *path*, keeping the committed rows they do not
    replace (in their committed order)."""
    merged = {}
    if path.exists():
        committed = json.loads(path.read_text())
        if committed.get("schema") == SCHEMA:
            merged = {row["case"]: row for row in committed["rows"]}
    merged.update((row["case"], row) for row in rows)
    payload = {"schema": SCHEMA, "rows": list(merged.values())}
    path.write_text(json.dumps(payload, indent=1) + "\n")


def compare(path: Path, rows: list[dict]) -> list[str]:
    """Each row's ``counts`` against the committed row's: the mismatches."""
    if not path.exists():
        return [f"no committed baseline at {path}"]
    committed = json.loads(path.read_text())
    if committed.get("schema") != SCHEMA:
        return [f"{path} has schema {committed.get('schema')!r}, not {SCHEMA!r}"]
    baseline = {row["case"]: row.get("counts") for row in committed["rows"]}
    failures = []
    for row in rows:
        expected = baseline.get(row["case"])
        if expected is None:
            print(f"note: no committed counts for {row['case']}; not checked")
            continue
        for key in sorted(expected.keys() | row["counts"].keys()):
            if row["counts"].get(key) != expected.get(key):
                failures.append(
                    f"{row['case']}: {key} is {row['counts'].get(key)}, "
                    f"committed {expected.get(key)}"
                )
    return failures


def run(path: Path, cases, check: bool) -> int:
    """Run *cases* (an iterable of :class:`Case`), then write or check *path*."""
    rows, failures = [], []
    for case in cases:
        row = case.row()
        stages = " ".join(
            f"{root.name}={row['seconds'][root.name]:.3f}s"
            for root in case.tracer.roots
        )
        ratios = " ".join(f"{name}={value}x" for name, value in row["ratios"].items())
        print(f"[bench] {case.name}: {stages} {ratios}".rstrip(), flush=True)
        rows.append(row)
        failures += case.failures
    if check:
        failures += compare(path, rows)
    if failures:
        print("benchmark check failed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if check:
        print(f"check passed: counts equal {path.name}'s and every ratio holds its floor")
    else:
        write(path, rows)
        print(f"wrote {path}")
    return 0
