"""End-to-end observability: facade, spans per stage, manifest artefacts."""

import json

import pytest

from repro import analyze, cluster_segments, run_analysis
from repro.core.autoconf import configure
from repro.core.pipeline import ClusteringConfig
from repro.obs.export import parse_prometheus_text, validate_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SPAN_SECONDS_METRIC, Tracer
from repro.protocols import get_model

PIPELINE_STAGES = ("matrix", "autoconf", "dbscan", "refine")


def span_count_sample(name):
    """Prometheus sample key of one span's ``repro_span_seconds`` count."""
    return (f"{SPAN_SECONDS_METRIC}_count", (("span", name), ("status", "ok")))


def ntp_trace(count=60):
    trace = get_model("ntp").generate(count, seed=42)
    trace.protocol = "ntp"
    return trace


class TestFacade:
    def test_analyze_works_without_cli(self):
        report = analyze(ntp_trace())
        assert report.protocol == "ntp"
        assert report.cluster_count >= 1
        assert report.unique_segments > 0

    def test_analyze_from_pcap_path(self, tmp_path):
        from repro.__main__ import main as repro_main

        pcap = tmp_path / "ntp.pcap"
        assert repro_main(["generate", "ntp", "-n", "80", "-o", str(pcap)]) == 0
        report = analyze(pcap, protocol="ntp", port=123, segmenter="csp")
        assert report.protocol == "ntp"
        assert report.message_count > 0

    def test_analyze_rejects_unknown_segmenter(self):
        import pytest

        with pytest.raises(ValueError, match="unknown segmenter"):
            analyze(ntp_trace(), segmenter="nope")

    def test_cluster_segments_facade(self):
        from repro.segmenters import GroundTruthSegmenter

        model = get_model("ntp")
        trace = model.generate(60, seed=42).preprocess()
        segments = GroundTruthSegmenter(model).segment(trace)
        result = cluster_segments(segments)
        assert result.cluster_count >= 1

    def test_run_analysis_returns_intermediates(self):
        run = run_analysis(ntp_trace(), semantics=True)
        assert run.segments and run.result.cluster_count >= 1
        assert run.semantics is not None
        assert run.report.cluster_count == run.result.cluster_count


class TestSpansPerStage:
    def test_one_span_per_pipeline_stage(self):
        tracer = Tracer()
        analyze(ntp_trace(), tracer=tracer)
        assert len(tracer.find("segment")) == 1
        assert len(tracer.find("pipeline")) == 1
        for stage in PIPELINE_STAGES:
            assert len(tracer.find(stage)) == 1, f"expected one {stage} span"
        # The stage spans are children of the pipeline root.
        (pipeline,) = tracer.find("pipeline")
        child_names = [child.name for child in pipeline.children]
        assert child_names == list(PIPELINE_STAGES)

    @pytest.mark.parametrize("bound", [1, None])
    def test_autoconf_and_neighborhood_spans_explain_decisions(self, bound):
        tracer = Tracer()
        run = run_analysis(
            ntp_trace(), ClusteringConfig(memory_bound_bytes=bound), tracer=tracer
        )
        (autoconf,) = tracer.find("autoconf")
        # The span records the first configuration, before any retrim.
        auto = configure(run.result.matrix)
        assert autoconf.attributes["epsilon"] == auto.epsilon
        assert autoconf.attributes["k"] == auto.k
        assert autoconf.attributes["fallback"] is auto.fallback_used
        # The first DBSCAN run uses autoconf's own epsilon.
        first = tracer.find("dbscan.neighborhoods")[0].attributes
        within = run.result.matrix.values <= autoconf.attributes["epsilon"]
        counts = within.sum(axis=1)
        assert first["edges"] == int(within.sum())
        assert first["core"] == int((counts >= autoconf.attributes["min_samples"]).sum())

    def test_semantics_span_present_when_enabled(self):
        tracer = Tracer()
        analyze(ntp_trace(), semantics=True, tracer=tracer)
        assert len(tracer.find("semantics")) == 1

    def test_metrics_recorded_into_callers_registry(self):
        metrics = MetricsRegistry()
        analyze(ntp_trace(), metrics=metrics)
        # No tracer is bound, yet every span still lands in the registry.
        durations = metrics.histogram(SPAN_SECONDS_METRIC)
        for name in ("segment", "pipeline", *PIPELINE_STAGES):
            assert durations.snapshot(span=name, status="ok")["count"] == 1
        assert metrics.histogram("repro_cluster_size").snapshot()["count"] >= 1


class TestCliArtefacts:
    def run_analyze(self, tmp_path, extra=()):
        from repro.__main__ import main as repro_main

        manifest_path = tmp_path / "run.json"
        metrics_path = tmp_path / "run.prom"
        code = repro_main(
            [
                "analyze",
                "--model",
                "ntp",
                "-n",
                "60",
                "--trace-out",
                str(manifest_path),
                "--metrics-out",
                str(metrics_path),
                *extra,
            ]
        )
        assert code == 0
        return manifest_path, metrics_path

    def test_manifest_has_all_stages(self, tmp_path):
        manifest_path, _ = self.run_analyze(tmp_path)
        manifest = validate_manifest(json.loads(manifest_path.read_text()))
        names = []

        def walk(node):
            names.append(node["name"])
            for child in node["children"]:
                walk(child)

        for root in manifest["spans"]:
            walk(root)
        for stage in ("segment", *PIPELINE_STAGES):
            assert names.count(stage) == 1, f"expected one {stage} span, got {names}"
        assert manifest["config_fingerprint"]

    def test_prometheus_file_parses(self, tmp_path):
        manifest_path, metrics_path = self.run_analyze(tmp_path)
        samples = parse_prometheus_text(metrics_path.read_text())
        assert samples[span_count_sample("pipeline")] == 1
        for stage in PIPELINE_STAGES:
            assert samples[span_count_sample(stage)] == 1
            assert (
                f"{SPAN_SECONDS_METRIC}_bucket",
                (("le", "+Inf"), ("span", stage), ("status", "ok")),
            ) in samples
        manifest = json.loads(manifest_path.read_text())
        (pipeline,) = [root for root in manifest["spans"] if root["name"] == "pipeline"]
        assert pipeline["attributes"]["unique_segments"] > 0

    def test_timings_view_reads_span_data(self, tmp_path, capsys):
        self.run_analyze(tmp_path, extra=["--timings"])
        err = capsys.readouterr().err
        assert "timings:" in err
        for stage in ("segment", "matrix", "autoconf", "dbscan", "refine"):
            assert f"{stage}=" in err
        assert "matrix: backend=" in err

    def test_analyze_verb_is_optional(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["--model", "ntp", "-n", "60"]) == 0
        assert "pseudo data types" in capsys.readouterr().out

    def test_eval_cli_emits_artefacts(self, tmp_path):
        from repro.eval.__main__ import main as eval_main

        manifest_path = tmp_path / "eval.json"
        metrics_path = tmp_path / "eval.prom"
        code = eval_main(
            [
                "table1",
                "--quick",
                "--trace-out",
                str(manifest_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        manifest = validate_manifest(json.loads(manifest_path.read_text()))
        assert manifest["meta"]["artefact"] == "table1"
        assert any(root["name"] == "eval.cell" for root in manifest["spans"])
        samples = parse_prometheus_text(metrics_path.read_text())
        cells = [root for root in manifest["spans"] if root["name"] == "eval.cell"]
        assert samples[span_count_sample("eval.cell")] == len(cells)
        assert samples[span_count_sample("pipeline")] >= 1
