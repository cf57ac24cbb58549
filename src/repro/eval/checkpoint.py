"""Resumable evaluation sweeps: a JSON-lines checkpoint of finished cells.

A full table run is a sweep over (protocol, message count, segmenter)
cells, each costing seconds to minutes; a crash in cell 47 of 60 used to
throw everything away.  :class:`SweepCheckpoint` appends every finished
:class:`~repro.eval.runner.ExperimentCell` — including *failed* ones —
as one JSON line, so an interrupted sweep re-run with ``--resume`` skips
every cell already on disk.

Each line is stamped with a *sweep fingerprint*
(:func:`sweep_fingerprint`, a SHA-256 via
:func:`repro.obs.export.config_fingerprint` over the seed, the sweep
kind and a non-default matrix dtype, the one config setting that
changes a cell's numbers) — resuming with a different seed or dtype
ignores stale lines instead of serving wrong numbers.  Loading is
deliberately forgiving: a torn final line from a crash mid-write, or
garbage from an unrelated tool, is skipped rather than fatal.

Line schema (``repro.eval-checkpoint/v1``)::

    {"schema": "repro.eval-checkpoint/v1", "fingerprint": "…",
     "cell": {"protocol": …, "message_count": …, "segmenter": …,
              "failed": …, "failure_class": …, "failure_reason": …,
              "score": {…} | null, "coverage": …, "epsilon": …,
              "unique_segments": …, "runtime_seconds": …}}
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core.matrix import DTYPE_FLOAT64
from repro.eval.runner import ExperimentCell
from repro.metrics.pairwise import ClusterScore
from repro.obs.export import config_fingerprint

CHECKPOINT_SCHEMA = "repro.eval-checkpoint/v1"

#: A cell's identity within one sweep (seed and dtype live in the
#: fingerprint).  Cells without a refinement pass keep the historical
#: 3-tuple so pre-grid checkpoints stay resumable; grid cells with a
#: refinement extend the key with it.
CellKey = tuple


def cell_key(cell: ExperimentCell) -> CellKey:
    refinement = getattr(cell, "refinement", "none")
    if refinement in ("", "none"):
        return (cell.protocol, cell.message_count, cell.segmenter)
    return (cell.protocol, cell.message_count, cell.segmenter, refinement)


def sweep_fingerprint(seed: int, config=None, kind: str | None = None) -> str:
    """Fingerprint identifying one sweep's inputs (seed, kind, dtype).

    *kind* namespaces sweeps whose cells carry extra per-cell state —
    the scenario grid passes ``kind="grid"`` so its msgtype-bearing
    cells never satisfy a plain table sweep (or vice versa); omitting
    it preserves the historical fingerprint of existing checkpoints.
    Of the clustering *config* only the matrix dtype changes the
    numbers (workers, storage and the memory bound do not), so a
    float32 sweep is namespaced apart and a float64 one keeps the
    historical fingerprint.
    """
    payload = {"schema": CHECKPOINT_SCHEMA, "seed": seed, "config": None}
    options = getattr(config, "matrix_options", None)
    if options is not None and options.dtype != DTYPE_FLOAT64:
        payload["dtype"] = options.dtype
    if kind is not None:
        payload["kind"] = kind
    return config_fingerprint(payload)


def cell_to_record(cell: ExperimentCell) -> dict:
    """JSON image of one cell (dataclasses, score included)."""
    record = dataclasses.asdict(cell)
    return record


def cell_from_record(record: dict) -> ExperimentCell:
    """Rebuild a cell from its JSON image; raises on schema mismatch."""
    score = record.get("score")
    return ExperimentCell(
        protocol=record["protocol"],
        message_count=int(record["message_count"]),
        segmenter=record["segmenter"],
        failed=bool(record["failed"]),
        failure_class=str(record.get("failure_class", "")),
        failure_reason=str(record.get("failure_reason", "")),
        score=ClusterScore(**score) if score is not None else None,
        coverage=record.get("coverage"),
        epsilon=record.get("epsilon"),
        unique_segments=int(record.get("unique_segments", 0)),
        runtime_seconds=float(record.get("runtime_seconds", 0.0)),
        refinement=str(record.get("refinement", "none")),
        boundaries_moved=int(record.get("boundaries_moved", 0)),
        msgtype_count=record.get("msgtype_count"),
        msgtype_noise=record.get("msgtype_noise"),
        msgtype_epsilon=record.get("msgtype_epsilon"),
        msgtype_precision=record.get("msgtype_precision"),
        sm_states=record.get("sm_states"),
        sm_transitions=record.get("sm_transitions"),
        sm_holdout_accept=record.get("sm_holdout_accept"),
        sm_truth_coverage=record.get("sm_truth_coverage"),
    )


class SweepCheckpoint:
    """Append-only JSONL store of finished sweep cells.

    One instance serves both recording (:meth:`record`) and resuming
    (:meth:`load`); the same file can accumulate cells from table1 and
    table2 runs of the same sweep, since cells are keyed by
    (protocol, message count, segmenter).
    """

    def __init__(self, path: str | Path, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint

    def load(self) -> dict[CellKey, ExperimentCell]:
        """Completed cells recorded for this sweep's fingerprint.

        Torn, malformed, or foreign-fingerprint lines are skipped; a
        later record for the same key wins (re-runs overwrite).
        """
        cells: dict[CellKey, ExperimentCell] = {}
        try:
            text = self.path.read_text()
        except (FileNotFoundError, OSError):
            return cells
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if (
                    payload.get("schema") != CHECKPOINT_SCHEMA
                    or payload.get("fingerprint") != self.fingerprint
                ):
                    continue
                cell = cell_from_record(payload["cell"])
            except (ValueError, KeyError, TypeError):
                continue  # torn tail line or foreign content
            cells[cell_key(cell)] = cell
        return cells

    def record(self, cell: ExperimentCell) -> None:
        """Append one finished cell; never raises on an unwritable path."""
        line = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "fingerprint": self.fingerprint,
                "cell": cell_to_record(cell),
            },
            sort_keys=True,
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
        except OSError:
            # A read-only checkpoint location degrades to a plain
            # (non-resumable) sweep instead of failing the run.
            pass
