"""Fault injection, eval: a killed sweep resumes; a crashing cell is recorded.

Acceptance path: an eval sweep killed mid-run resumes via ``--resume``
without recomputing finished cells, and a raising cell is recorded as
*failed* while the sweep completes.
"""

import pytest

from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.eval import runner as runner_mod
from repro.eval import tables as tables_mod
from repro.eval.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.eval.runner import ExperimentCell, run_cell
from repro.eval.tables import run_grid, run_table1, sweep_cells
from repro.metrics.pairwise import ClusterScore
from repro.obs.metrics import MetricsRegistry, use_metrics

pytestmark = pytest.mark.faults

SPECS = [
    ("dns", 40, "groundtruth"),
    ("ntp", 40, "groundtruth"),
    ("nbns", 40, "groundtruth"),
    ("dhcp", 40, "groundtruth"),
]


def _fake_cell(spec, marker: float = 1.0) -> ExperimentCell:
    return ExperimentCell(
        protocol=spec[0],
        message_count=spec[1],
        segmenter=spec[2],
        score=ClusterScore(
            precision=1.0,
            recall=1.0,
            fscore=1.0,
            true_positives=1,
            false_positives=0,
            false_negatives=0,
            cluster_count=1,
            noise_count=0,
        ),
        coverage=1.0,
        epsilon=0.1,
        unique_segments=spec[1],
        runtime_seconds=marker,
    )


class KilledMidSweep(Exception):
    """Stands in for SIGKILL: aborts the sweep between two cells."""


class TestResume:
    def test_killed_sweep_resumes_without_recompute(self, tmp_path, monkeypatch):
        checkpoint = SweepCheckpoint(tmp_path / "sweep.jsonl", sweep_fingerprint(42))
        calls: list[tuple] = []

        def dying_run_cell(protocol, message_count, segmenter, seed, config):
            spec = (protocol, message_count, segmenter)
            if len(calls) == 2:
                raise KilledMidSweep(spec)
            calls.append(spec)
            return _fake_cell(spec, marker=7.0)

        monkeypatch.setattr(tables_mod, "run_cell", dying_run_cell)
        with pytest.raises(KilledMidSweep):
            sweep_cells(SPECS, seed=42, checkpoint=checkpoint)
        assert calls == SPECS[:2]  # two cells finished before the "kill"

        def resumed_run_cell(protocol, message_count, segmenter, seed, config):
            spec = (protocol, message_count, segmenter)
            assert spec not in SPECS[:2], f"recomputed finished cell {spec}"
            calls.append(spec)
            return _fake_cell(spec)

        monkeypatch.setattr(tables_mod, "run_cell", resumed_run_cell)
        cells = sweep_cells(SPECS, seed=42, checkpoint=checkpoint, resume=True)
        assert set(cells) == set(SPECS)
        # The first two cells came back from the checkpoint, marker intact.
        assert cells[SPECS[0]].runtime_seconds == 7.0
        assert cells[SPECS[1]].runtime_seconds == 7.0
        assert calls == SPECS  # every cell computed exactly once overall

    def test_resumed_cells_counted_in_metrics(self, tmp_path, monkeypatch):
        checkpoint = SweepCheckpoint(tmp_path / "sweep.jsonl", sweep_fingerprint(42))
        monkeypatch.setattr(
            tables_mod, "run_cell", lambda p, m, s, seed, config: _fake_cell((p, m, s))
        )
        sweep_cells(SPECS[:2], seed=42, checkpoint=checkpoint)
        registry = MetricsRegistry()
        with use_metrics(registry):
            sweep_cells(SPECS[:2], seed=42, checkpoint=checkpoint, resume=True)
            resumed = registry.counter(runner_mod.CELLS_METRIC).value(status="resumed")
        assert resumed == 2

    def test_different_seed_does_not_resume(self, tmp_path, monkeypatch):
        recorder = SweepCheckpoint(tmp_path / "sweep.jsonl", sweep_fingerprint(42))
        monkeypatch.setattr(
            tables_mod, "run_cell", lambda p, m, s, seed, config: _fake_cell((p, m, s))
        )
        sweep_cells(SPECS[:2], seed=42, checkpoint=recorder)
        other = SweepCheckpoint(tmp_path / "sweep.jsonl", sweep_fingerprint(43))
        calls = []

        def counting_run_cell(protocol, message_count, segmenter, seed, config):
            calls.append((protocol, message_count, segmenter))
            return _fake_cell((protocol, message_count, segmenter))

        monkeypatch.setattr(tables_mod, "run_cell", counting_run_cell)
        sweep_cells(SPECS[:2], seed=43, checkpoint=other, resume=True)
        assert calls == SPECS[:2]  # nothing was (wrongly) reused

    def test_torn_and_foreign_lines_skipped(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        checkpoint = SweepCheckpoint(path, sweep_fingerprint(42))
        monkeypatch.setattr(
            tables_mod, "run_cell", lambda p, m, s, seed, config: _fake_cell((p, m, s))
        )
        sweep_cells(SPECS[:1], seed=42, checkpoint=checkpoint)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"schema": "other-tool/v9", "cell": {}}\n')
            handle.write('{"schema": "repro.eval-checkpoint/v1", "fi')  # torn write
        done = checkpoint.load()
        assert set(done) == {SPECS[0]}


class TestGridResume:
    """The scenario grid shares the checkpoint machinery cell-for-cell."""

    GRID_ROWS = [("dns", 40), ("ntp", 40)]

    @staticmethod
    def _fake_grid_cell(spec, refinement, marker=1.0) -> ExperimentCell:
        cell = _fake_cell(spec, marker=marker)
        return ExperimentCell(
            **{
                **cell.__dict__,
                "refinement": refinement,
                "boundaries_moved": 3 if refinement != "none" else 0,
                "msgtype_count": 2,
                "msgtype_noise": 0,
                "msgtype_epsilon": 0.2,
                "msgtype_precision": 1.0,
            }
        )

    def test_killed_grid_resumes_without_recompute(self, tmp_path, monkeypatch):
        checkpoint = SweepCheckpoint(
            tmp_path / "grid.jsonl", sweep_fingerprint(42, kind="grid")
        )
        calls: list[tuple] = []

        def dying_run_cell(protocol, count, segmenter, seed, config, *,
                           refinement="none", msgtypes=False,
                           statemachine=False):
            assert msgtypes
            if len(calls) == 3:
                raise KilledMidSweep((protocol, count, segmenter, refinement))
            calls.append((protocol, count, segmenter, refinement))
            return self._fake_grid_cell((protocol, count, segmenter),
                                        refinement, marker=7.0)

        monkeypatch.setattr(tables_mod, "run_cell", dying_run_cell)
        with pytest.raises(KilledMidSweep):
            run_grid(seed=42, rows=self.GRID_ROWS, checkpoint=checkpoint)
        assert len(calls) == 3  # three cells finished before the "kill"

        def resumed_run_cell(protocol, count, segmenter, seed, config, *,
                             refinement="none", msgtypes=False,
                             statemachine=False):
            spec = (protocol, count, segmenter, refinement)
            assert spec not in calls, f"recomputed finished grid cell {spec}"
            calls.append(spec)
            return self._fake_grid_cell((protocol, count, segmenter), refinement)

        monkeypatch.setattr(tables_mod, "run_cell", resumed_run_cell)
        grid = run_grid(
            seed=42, rows=self.GRID_ROWS, checkpoint=checkpoint, resume=True
        )
        assert len(grid.cells) == 4  # 2 rows x nemesys x (none, pca)
        assert len(calls) == 4  # every cell computed exactly once overall
        # The resumed cells carry their grid payload back intact.
        resumed = grid.cells[("dns", 40, "nemesys", "pca")]
        assert resumed.runtime_seconds == 7.0
        assert resumed.refinement == "pca"
        assert resumed.boundaries_moved == 3
        assert resumed.msgtype_count == 2
        assert resumed.msgtype_precision == 1.0

    def test_refined_cells_do_not_collide_with_plain_cells(self):
        plain = _fake_cell(("dns", 40, "nemesys"))
        refined = self._fake_grid_cell(("dns", 40, "nemesys"), "pca")
        from repro.eval.checkpoint import cell_key

        assert cell_key(plain) == ("dns", 40, "nemesys")
        assert cell_key(refined) == ("dns", 40, "nemesys", "pca")

    def test_grid_fingerprint_is_namespaced(self):
        assert sweep_fingerprint(42, kind="grid") != sweep_fingerprint(42)
        assert sweep_fingerprint(42) == sweep_fingerprint(42, kind=None)


class TestFailedCellBarrier:
    def test_raising_cell_recorded_failed_sweep_completes(self, monkeypatch):
        real_cluster = runner_mod.cluster_segments

        # The first cell (dns) crashes, the second (ntp) succeeds: the
        # sweep must finish with one failure entry and one real row.
        def selective_cluster(segments, config=None, **kwargs):
            if getattr(selective_cluster, "armed", True):
                selective_cluster.armed = False
                raise RuntimeError("injected clustering crash")
            return real_cluster(segments, config, **kwargs)

        monkeypatch.setattr(runner_mod, "cluster_segments", selective_cluster)
        table = run_table1(seed=1, rows=[("dns", 40), ("ntp", 40)])
        assert len(table.failures) == 1
        assert table.failures[0].failure_class == "RuntimeError"
        assert "injected clustering crash" in table.failures[0].failure_reason
        assert len(table.rows) == 1
        assert table.rows[0].protocol == "ntp"
        assert "fails" in table.render()

    def test_failed_cell_checkpointed_and_not_rerun(self, tmp_path, monkeypatch):
        checkpoint = SweepCheckpoint(tmp_path / "sweep.jsonl", sweep_fingerprint(1))

        def always_crash(segments, config=None, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_mod, "cluster_segments", always_crash)
        first = run_cell("dns", 40, "groundtruth", seed=1)
        assert first.failed and first.failure_class == "RuntimeError"
        checkpoint.record(first)

        # Resuming returns the recorded failure instead of recomputing.
        def must_not_run(protocol, message_count, segmenter, seed, config):
            raise AssertionError("failed cell was recomputed on resume")

        monkeypatch.setattr(tables_mod, "run_cell", must_not_run)
        cells = sweep_cells(
            [("dns", 40, "groundtruth")], seed=1, checkpoint=checkpoint, resume=True
        )
        assert cells[("dns", 40, "groundtruth")].failed

    def test_caller_errors_still_raise(self):
        with pytest.raises(Exception):
            run_cell("no-such-protocol", 10, "groundtruth")
        with pytest.raises(Exception):
            run_cell("dns", 10, "no-such-segmenter")


class TestEvalCliFlags:
    def test_resume_requires_checkpoint(self, capsys):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_float32_resume_does_not_load_float64_cells(self, tmp_path, monkeypatch):
        from repro.eval.__main__ import main

        dtypes = []

        def recording_run_cell(protocol, message_count, segmenter, seed, config):
            dtypes.append(config.matrix_options.dtype)
            return _fake_cell((protocol, message_count, segmenter))

        monkeypatch.setattr(tables_mod, "run_cell", recording_run_cell)
        argv = ["table1", "--quick", "--checkpoint", str(tmp_path / "s")]
        assert main(argv) == 0
        cells = len(dtypes)
        assert cells and set(dtypes) == {"float64"}
        assert main([*argv, "--resume"]) == 0
        assert len(dtypes) == cells  # every float64 cell came from the file
        assert main([*argv, "--resume", "--matrix-dtype", "float32"]) == 0
        assert dtypes[cells:] == ["float32"] * cells


class TestSweepFingerprint:
    def test_float64_fingerprints_are_unchanged(self):
        # The values every checkpoint written so far carries.
        assert sweep_fingerprint(42) == (
            "cba081aca6ef36e4eee15767cf3fa5dffec83d163143c8778c039c66adcd8363"
        )
        assert sweep_fingerprint(42, kind="grid") == (
            "2cc3a918825843412a74548ff872fdb3eff77510c1203f86d8edbb52ea34c5e8"
        )
        assert sweep_fingerprint(42, kind="grid-sm") == (
            "8e21e505c8a3169453a83d4e56ce904c103494bbf98ccdae09b10a8df622afcc"
        )
        # Backend settings that leave the numbers alone stay out of it.
        backend = ClusteringConfig(
            matrix_options=MatrixBuildOptions(workers=0, storage="memmap"),
            memory_bound_bytes=1 << 20,
        )
        assert sweep_fingerprint(42, backend) == sweep_fingerprint(42)

    def test_float32_is_namespaced_apart(self):
        float32 = ClusteringConfig(matrix_options=MatrixBuildOptions(dtype="float32"))
        assert sweep_fingerprint(42, float32) != sweep_fingerprint(42)
        assert sweep_fingerprint(42, float32, kind="grid") != sweep_fingerprint(
            42, kind="grid"
        )
