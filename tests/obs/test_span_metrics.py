"""Spans are the one record: every closed span feeds ``repro_span_seconds``.

The tracer adds each closed span's wall time to one histogram,
``repro_span_seconds{span, status}``, in the active metrics registry.
These tests pin that the histogram restates the span tree exactly (one
sample per span, summing to the spans' wall time), on the batch
analysis, the incremental session and the threaded matrix build, and
that the per-layer metrics it replaced stay gone.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro import AnalysisSession, run_analysis
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.core.segments import Segment, unique_segments
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import SPAN_SECONDS_METRIC, Tracer, use_tracer
from repro.protocols import get_model
from repro.serve import build_parser, make_session

#: Per-layer metrics whose signal lives on a span (name or attribute).
REMOVED_METRICS = (
    "repro_pipeline_runs_total",
    "repro_stage_seconds",
    "repro_unique_segments",
    "repro_clusters",
    "repro_noise_segments",
    "repro_knee_retries_total",
    "repro_matrix_builds_total",
    "repro_matrix_pairs_vectorized_total",
    "repro_knn_partition_seconds",
    "repro_matrix_bin_queue_seconds",
    "repro_matrix_bins_scheduled_total",
    "repro_dbscan_rows_scanned_total",
    "repro_segments_total",
    "repro_refine_runs_total",
    "repro_refine_boundaries_moved_total",
    "repro_semantic_hypotheses_total",
    "repro_msgtypes_runs_total",
    "repro_msgtypes_clusters",
    "repro_msgtypes_noise_messages",
    "repro_msgtypes_similarity_seconds",
    "repro_statemachine_runs_total",
    "repro_statemachine_states",
    "repro_statemachine_transitions",
    "repro_statemachine_sessions",
    "repro_statemachine_seconds",
)


def span_series(registry: MetricsRegistry) -> dict[tuple[str, str], dict]:
    """``(span, status) -> {count, sum, ...}`` for every recorded series."""
    histogram = registry.histogram(SPAN_SECONDS_METRIC)
    series = {}
    for key in histogram.label_sets():
        labels = dict(key)
        series[labels["span"], labels["status"]] = histogram.snapshot(**labels)
    return series


def span_count(registry: MetricsRegistry, name: str) -> int:
    return span_series(registry).get((name, "ok"), {"count": 0})["count"]


def assert_histogram_restates_tree(tracer: Tracer, registry: MetricsRegistry):
    walls = defaultdict(list)
    for span in tracer.walk():
        assert span.status == "ok"
        walls[span.name].append(span.wall_seconds)
    series = span_series(registry)
    assert set(series) == {(name, "ok") for name in walls}
    for name, seconds in walls.items():
        assert series[name, "ok"]["count"] == len(seconds), name
        assert series[name, "ok"]["sum"] == pytest.approx(sum(seconds), abs=1e-9)


@pytest.fixture(scope="module")
def analysis():
    """One batch run through every analysis layer, PCA refinement included."""
    tracer, registry = Tracer(), MetricsRegistry()
    model = get_model("dhcp")
    config = ClusteringConfig(
        refinement="pca", matrix_options=MatrixBuildOptions(workers=0)
    )
    run = run_analysis(
        model.generate(80, seed=3),
        config,
        protocol="dhcp",
        semantics=True,
        statemachine=True,
        tracer=tracer,
        metrics=registry,
    )
    return tracer, registry, run


@pytest.fixture(scope="module")
def session_run():
    """An incremental session over four DNS appends plus a snapshot."""
    tracer, registry = Tracer(), MetricsRegistry()
    session = AnalysisSession(protocol="dns", tracer=tracer, metrics=registry)
    messages = get_model("dns").generate(120, seed=7).messages
    for start in range(0, len(messages), 30):
        session.append(messages[start : start + 30])
    run = session.snapshot()
    session.close()
    return tracer, registry, run


class TestEverySpanName:
    def test_histogram_restates_the_batch_tree(self, analysis):
        tracer, registry, _ = analysis
        names = {span.name for span in tracer.walk()}
        for layer in ("segment", "refine.pca", "pipeline", "matrix.build",
                      "semantics", "msgtypes.similarity", "statemachine.infer"):
            assert layer in names
        assert_histogram_restates_tree(tracer, registry)

    def test_pipeline_span_carries_the_outcome(self, analysis):
        tracer, _, run = analysis
        pipeline = tracer.find("pipeline")[-1]
        assert pipeline.attributes == {
            "segments": len(run.segments),
            "unique_segments": len(run.result.segments),
            "excluded": len(run.result.excluded),
            "clusters": run.result.cluster_count,
            "noise": len(run.result.noise),
        }

    def test_build_span_carries_pairs(self, analysis):
        tracer, _, run = analysis
        build = tracer.find("matrix.build")[-1]
        assert build.attributes["pairs"] == run.result.matrix.stats.pairs_vectorized
        count = len(run.result.segments)
        assert build.attributes["pairs"] == count * (count - 1) // 2


class TestSessionAppends:
    def test_histogram_restates_the_session_tree(self, session_run):
        tracer, registry, _ = session_run
        assert len(tracer.find("session.append")) == 4
        assert_histogram_restates_tree(tracer, registry)

    def test_matrix_series_counts_matrix_spans(self, session_run):
        tracer, registry, _ = session_run
        assert span_count(registry, "matrix") == len(tracer.find("matrix"))
        assert span_count(registry, "matrix.append") == 3

    def test_knn_and_knn_merge_are_separate_series(self, session_run):
        tracer, registry, _ = session_run
        knn, merges = tracer.find("matrix.knn"), tracer.find("matrix.knn_merge")
        assert knn and merges
        assert span_count(registry, "matrix.knn") == len(knn)
        assert span_count(registry, "matrix.knn_merge") == len(merges)

    def test_build_and_append_pairs_cover_every_pair_once(self, session_run):
        tracer, _, run = session_run
        spans = tracer.find("matrix.build") + tracer.find("matrix.append")
        count = len(run.result.matrix)
        assert sum(span.attributes["pairs"] for span in spans) == count * (count - 1) // 2


class TestWorkerCount:
    def test_bin_count_is_worker_independent(self):
        rng = np.random.default_rng(11)
        datas = {bytes(rng.integers(0, 256, size=int(rng.integers(2, 9)), dtype=np.uint8))
                 for _ in range(700)}
        segments = unique_segments(
            [Segment(message_index=i, offset=0, data=d) for i, d in enumerate(sorted(datas))]
        )
        assert len(segments) >= 512
        counts = {}
        for workers in (0, 2):
            registry = MetricsRegistry()
            with use_metrics(registry):
                built = DissimilarityMatrix.build(
                    segments, options=MatrixBuildOptions(workers=workers)
                )
            assert built.stats.backend == ("parallel" if workers else "serial")
            counts[workers] = span_count(registry, "matrix.bin")
        assert counts[0] == counts[2] > 0


class TestTracerFeedsTheHistogram:
    def test_disabled_tracer_still_observes(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=False)
        with use_metrics(registry), use_tracer(tracer):
            with tracer.span("work") as span:
                pass
        assert tracer.roots == []
        assert span_series(registry)["work", "ok"]["sum"] == span.wall_seconds

    def test_error_spans_carry_error_status(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(registry), pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        assert set(span_series(registry)) == {("work", "error")}

    def test_recorded_spans_observe_their_given_wall_time(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            Tracer().record("tile", wall_seconds=0.25)
        assert span_series(registry)["tile", "ok"]["sum"] == 0.25

    def test_service_session_exports_span_seconds_without_a_tracer(self, tmp_path):
        registry = MetricsRegistry()
        args = build_parser().parse_args(["--checkpoint", str(tmp_path / "s.jsonl")])
        session = make_session(args, metrics=registry)
        session.append(get_model("dns").generate(40, seed=1).messages)
        session.close()
        samples = parse_prometheus_text(prometheus_text(registry))
        key = (f"{SPAN_SECONDS_METRIC}_count", (("span", "session.append"), ("status", "ok")))
        assert samples[key] == 1


class TestRemovedMetrics:
    def test_no_removed_metric_is_registered(self, analysis, session_run):
        for _, registry, _ in (analysis, session_run):
            registered = {instrument.name for instrument in registry.instruments()}
            assert registered.isdisjoint(REMOVED_METRICS)
            assert SPAN_SECONDS_METRIC in registered

    def test_no_span_restates_its_wall_time(self, analysis, session_run):
        for tracer, _, _ in (analysis, session_run):
            for span in tracer.walk():
                assert "seconds" not in span.attributes, span.name
