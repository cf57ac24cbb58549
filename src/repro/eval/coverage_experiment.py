"""The paper's headline coverage comparison (Section IV-D).

FieldHunter types one or two fields per message (~3 % of bytes on
average in the paper); pseudo-data-type clustering covers most of the
message content (87 % average over Table II in the paper).  This module
computes both sides on our traces: per protocol, FieldHunter coverage
vs. the clustering coverage of each heuristic segmenter (best cell
reported, as the analyst would pick the best-suited segmenter per
protocol — Section IV-C closes with exactly that remaining choice).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.fieldhunter import FieldHunter
from repro.core.pipeline import ClusteringConfig
from repro.eval.reporting import fmt_pct, render_table
from repro.eval.runner import (
    DEFAULT_SEED,
    HEURISTIC_SEGMENTERS,
    prepare_trace,
    run_cell,
)
from repro.protocols.registry import LARGE_TRACE_ROWS, SMALL_TRACE_ROWS


@dataclass
class CoverageRow:
    protocol: str
    message_count: int
    fieldhunter_coverage: float
    fieldhunter_applicable: bool
    clustering_coverage: float
    best_segmenter: str
    #: coverage of every non-failing segmenter cell for this row
    all_cell_coverages: tuple[float, ...] = ()


@dataclass
class CoverageComparison:
    rows: list[CoverageRow]

    @property
    def fieldhunter_average(self) -> float:
        return sum(r.fieldhunter_coverage for r in self.rows) / len(self.rows)

    @property
    def clustering_average(self) -> float:
        return sum(r.clustering_coverage for r in self.rows) / len(self.rows)

    @property
    def all_cells_average(self) -> float:
        """Average over every non-failing Table-II cell (the paper's 87 %
        headline averages Table II's coverage column)."""
        values = [c for r in self.rows for c in r.all_cell_coverages]
        return sum(values) / len(values) if values else 0.0

    @property
    def improvement_factor(self) -> float:
        fh = self.fieldhunter_average
        return self.clustering_average / fh if fh > 0 else float("inf")

    def render(self) -> str:
        body = [
            [
                row.protocol,
                row.message_count,
                fmt_pct(row.fieldhunter_coverage)
                + ("" if row.fieldhunter_applicable else " (n/a)"),
                fmt_pct(row.clustering_coverage),
                row.best_segmenter,
            ]
            for row in self.rows
        ]
        table = render_table(
            ["proto", "msgs", "FieldHunter", "clustering", "best segmenter"],
            body,
            title="Coverage: FieldHunter baseline vs pseudo-data-type clustering",
        )
        summary = (
            f"\naverage coverage: FieldHunter {self.fieldhunter_average:.1%} "
            f"vs clustering {self.clustering_average:.1%} best-cell / "
            f"{self.all_cells_average:.1%} all-cells "
            f"(x{self.improvement_factor:.1f} improvement; "
            "paper: 3% vs 87%, ~x30)"
        )
        return table + summary


def run_coverage_comparison(
    seed: int = DEFAULT_SEED,
    rows: list[tuple[str, int]] | None = None,
    config: ClusteringConfig | None = None,
) -> CoverageComparison:
    """Compute the FieldHunter-vs-clustering coverage comparison (E5).

    *config* is passed to every clustering cell (see
    :func:`repro.eval.runner.run_cell`).
    """
    if rows is None:
        rows = LARGE_TRACE_ROWS + [r for r in SMALL_TRACE_ROWS if r[0] == "au"]
    out: list[CoverageRow] = []
    for proto, count in rows:
        model, trace = prepare_trace(proto, count, seed)
        fh = FieldHunter().analyze(trace)
        best_cov = 0.0
        best_seg = "-"
        cell_coverages = []
        for segmenter in HEURISTIC_SEGMENTERS:
            cell = run_cell(proto, count, segmenter, seed=seed, config=config)
            if cell.failed or cell.coverage is None or cell.score is None:
                continue
            cell_coverages.append(cell.coverage)
            # Pick the analyst's segmenter by F-score, then report its
            # coverage (mirrors the paper's per-protocol best choice).
            if best_seg == "-" or cell.score.fscore > best_f:
                best_f = cell.score.fscore
                best_cov = cell.coverage
                best_seg = cell.segmenter
        out.append(
            CoverageRow(
                protocol=proto,
                message_count=count,
                fieldhunter_coverage=fh.coverage.ratio,
                fieldhunter_applicable=fh.applicable,
                clustering_coverage=best_cov,
                best_segmenter=best_seg,
                all_cell_coverages=tuple(cell_coverages),
            )
        )
    return CoverageComparison(rows=out)
