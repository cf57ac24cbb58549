import numpy as np

from repro.core.ecdf import Ecdf
from repro.core.matrix import DissimilarityMatrix, knn_distances_reference
from repro.core.segments import segments_from_fields, unique_segments
from repro.eval.coverage_experiment import run_coverage_comparison
from repro.eval.figures import run_figure2, run_figure3
from repro.eval.reporting import ascii_plot, fmt, fmt_pct, render_table
from repro.eval.runner import prepare_trace
from repro.eval.tables import PAPER_TABLE1, PAPER_TABLE2, run_table1, run_table2


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_fmt_helpers(self):
        assert fmt(0.456) == "0.46"
        assert fmt(None) == ""
        assert fmt_pct(0.87) == "87%"
        assert fmt_pct(None) == ""

    def test_ascii_plot(self):
        out = ascii_plot([0, 1, 2], [0, 1, 4], width=20, height=5)
        assert "*" in out
        assert "x: [0.000, 2.000]" in out

    def test_ascii_plot_empty(self):
        assert ascii_plot([], []) == "(no data)"


class TestPaperReference:
    def test_table1_reference_complete(self):
        from repro.protocols.registry import ALL_ROWS

        assert set(PAPER_TABLE1) == set(ALL_ROWS)

    def test_table2_reference_complete(self):
        from repro.protocols.registry import ALL_ROWS

        expected = {(p, n, s) for p, n in ALL_ROWS for s in ("netzob", "nemesys", "csp")}
        assert set(PAPER_TABLE2) == expected

    def test_four_fails_in_paper_table2(self):
        assert sum(1 for v in PAPER_TABLE2.values() if v is None) == 4


class TestTablesSmoke:
    """Small-row smoke runs (full tables live in benchmarks/)."""

    def test_table1_small(self):
        table = run_table1(seed=4, rows=[("ntp", 60), ("dns", 60)])
        out = table.render()
        assert "ntp" in out and "dns" in out
        assert "Table I" in out

    def test_table2_small(self):
        table = run_table2(seed=4, rows=[("ntp", 60)], segmenters=("nemesys",))
        out = table.render()
        assert "nemesys" in out
        assert table.average_coverage() >= 0


class TestFigures:
    def test_figure2_structure(self):
        fig = run_figure2(message_count=80, seed=4)
        assert fig.smooth_x.shape == fig.smooth_y.shape
        assert np.all(np.diff(fig.smooth_y) >= 0)
        assert fig.epsilon > 0
        assert "Figure 2" in fig.render()
        # The ECDF samples are the full-sort reference's k-NN column.
        model, trace = prepare_trace("ntp", 80, 4)
        segments = [
            segment
            for index, message in enumerate(trace)
            for segment in segments_from_fields(
                index, message.data, model.dissect(message.data)
            )
        ]
        matrix = DissimilarityMatrix.build(unique_segments(segments))
        reference_x, reference_y = Ecdf.from_samples(knn_distances_reference(matrix.values, fig.k)).step_points
        assert fig.ecdf_x.tobytes() == reference_x.tobytes()
        assert fig.ecdf_y.tobytes() == reference_y.tobytes()

    def test_figure3_finds_split_timestamps(self):
        fig = run_figure3(message_count=60, seed=4)
        assert fig.examples, "expected boundary-error examples"
        rendered = fig.render()
        assert "Figure 3" in rendered
        assert "|" in rendered.splitlines()[2]

    def test_figure3_cut_positions_inside_field(self):
        fig = run_figure3(message_count=60, seed=4)
        for example in fig.examples:
            assert all(0 < cut < 8 for cut in example.inferred_cuts)


class TestCoverageExperiment:
    def test_small_comparison(self):
        comparison = run_coverage_comparison(seed=4, rows=[("ntp", 60), ("au", 60)])
        assert len(comparison.rows) == 2
        au_row = next(r for r in comparison.rows if r.protocol == "au")
        assert au_row.fieldhunter_coverage == 0.0
        assert not au_row.fieldhunter_applicable
        out = comparison.render()
        assert "FieldHunter" in out
        assert comparison.clustering_average > comparison.fieldhunter_average
