"""Command-line interface: regenerate every paper artefact.

Examples::

    python -m repro.eval table1
    python -m repro.eval table2 --quick
    python -m repro.eval fig2
    python -m repro.eval fig3
    python -m repro.eval coverage
    python -m repro.eval all --seed 7 --trace-out eval.json --metrics-out eval.prom
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cliopts import backend_parent, emit_observability
from repro.core.pipeline import ClusteringConfig
from repro.eval.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.eval.coverage_experiment import run_coverage_comparison
from repro.eval.export import table1_records, table2_records, to_csv, to_json
from repro.eval.figures import run_figure2, run_figure3
from repro.eval.runner import DEFAULT_SEED
from repro.eval.tables import run_grid, run_table1, run_table2
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.protocols.registry import ALL_ROWS, SMALL_TRACE_ROWS


def _rows(quick: bool):
    return SMALL_TRACE_ROWS if quick else ALL_ROWS


def _export(args, name: str, records: list[dict]) -> None:
    """Write table records as JSON + CSV under --export-dir, if given."""
    if not args.export_dir:
        return
    directory = Path(args.export_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(to_json(records))
    (directory / f"{name}.csv").write_text(to_csv(records))
    print(f"exported {name} to {directory}/{name}.{{json,csv}}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the tables and figures of the field type "
        "clustering paper (Kleber et al., DSN-W 2022).",
        parents=[backend_parent()],
    )
    parser.add_argument(
        "artefact",
        choices=[
            "table1", "table2", "grid", "fig2", "fig3",
            "coverage", "scorecard", "all",
        ],
        help="which paper artefact to regenerate",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the small-trace rows (fast smoke run)",
    )
    parser.add_argument(
        "--export-dir",
        help="also write table records as JSON + CSV into this directory",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL file recording each finished table cell; a killed "
        "sweep can later continue from it with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --checkpoint (same seed only)",
    )
    parser.add_argument(
        "--segmenters",
        default="nemesys",
        help="comma-separated segmenters for the grid artefact",
    )
    parser.add_argument(
        "--refinements",
        default="none,pca",
        help="comma-separated refinement passes for the grid artefact",
    )
    parser.add_argument(
        "--protocols",
        default=None,
        help="comma-separated protocols restricting the grid artefact",
    )
    parser.add_argument(
        "--messages",
        type=int,
        default=None,
        help="message count per grid cell (default: the paper's rows)",
    )
    parser.add_argument(
        "--statemachine",
        action="store_true",
        help="also infer per-session state machines in grid cells "
        "(adds state-count / holdout-acceptance / truth-coverage columns)",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint PATH")
    # The grid's cells carry extra state (refinement, msgtypes), so its
    # checkpoints are namespaced apart from the plain table sweeps —
    # and statemachine-bearing grids apart from plain grids.
    fingerprint_kind = None
    if args.artefact == "grid":
        fingerprint_kind = "grid-sm" if args.statemachine else "grid"
    # One config from the shared backend flags, passed to every artefact.
    config = ClusteringConfig.from_args(args)
    checkpoint = (
        SweepCheckpoint(
            args.checkpoint,
            sweep_fingerprint(args.seed, config, kind=fingerprint_kind),
        )
        if args.checkpoint
        else None
    )
    tracer = Tracer()
    metrics = MetricsRegistry()

    outputs = []
    with use_tracer(tracer), use_metrics(metrics):
        if args.artefact in ("table1", "all"):
            table = run_table1(
                seed=args.seed,
                rows=_rows(args.quick),
                config=config,
                checkpoint=checkpoint,
                resume=args.resume,
            )
            outputs.append(table.render())
            _export(args, "table1", table1_records(table))
        if args.artefact in ("table2", "all"):
            table2 = run_table2(
                seed=args.seed,
                rows=_rows(args.quick),
                config=config,
                checkpoint=checkpoint,
                resume=args.resume,
            )
            outputs.append(table2.render())
            _export(args, "table2", table2_records(table2))
        if args.artefact == "grid":
            selected = _rows(args.quick)
            if args.protocols:
                wanted = {p.strip() for p in args.protocols.split(",") if p.strip()}
                selected = [row for row in selected if row[0] in wanted]
            if args.messages is not None:
                selected = [(proto, args.messages) for proto, _ in selected]
            grid = run_grid(
                seed=args.seed,
                rows=selected,
                segmenters=tuple(
                    s.strip() for s in args.segmenters.split(",") if s.strip()
                ),
                refinements=tuple(
                    r.strip() for r in args.refinements.split(",") if r.strip()
                ),
                config=config,
                checkpoint=checkpoint,
                resume=args.resume,
                statemachine=args.statemachine,
            )
            outputs.append(grid.render())
        if args.artefact == "scorecard":
            from repro.eval.paperdiff import build_scorecard

            table1 = run_table1(
                seed=args.seed,
                rows=_rows(args.quick),
                config=config,
                checkpoint=checkpoint,
                resume=args.resume,
            )
            table2 = run_table2(
                seed=args.seed,
                rows=_rows(args.quick),
                config=config,
                checkpoint=checkpoint,
                resume=args.resume,
            )
            outputs.append(build_scorecard(table1, table2).render())
        if args.artefact in ("fig2", "all"):
            count = 100 if args.quick else 1000
            outputs.append(
                run_figure2(message_count=count, seed=args.seed, config=config).render()
            )
        if args.artefact in ("fig3", "all"):
            outputs.append(run_figure3(seed=args.seed).render())
        if args.artefact in ("coverage", "all"):
            rows = SMALL_TRACE_ROWS if args.quick else None
            outputs.append(
                run_coverage_comparison(seed=args.seed, rows=rows, config=config).render()
            )
    emit_observability(
        args,
        tracer,
        metrics,
        config,
        meta={"command": "eval", "artefact": args.artefact, "seed": args.seed},
    )
    try:
        print("\n\n".join(outputs))
    except BrokenPipeError:  # output piped into head/less that closed early
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
