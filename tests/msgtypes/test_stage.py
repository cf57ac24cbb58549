"""Message-type stage parity: every entry path lands on the same labels.

The stage promises parity by construction — the batch API, the raw
``cluster_message_types`` function fed a prebuilt matrix, the
``cluster_matrix`` two-step, and the incremental session all reuse the
field pipeline's dissimilarity matrix, so the message distances (and
hence the DBSCAN labels) must be identical bit-for-bit.  These tests
pin that promise end to end, plus the report round-trip that carries
the stage's summary.
"""

from repro import AnalysisSession, api
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig, FieldTypeClusterer
from repro.msgtypes import cluster_message_types
from repro.obs.tracer import Tracer, use_tracer
from repro.protocols import get_model
from repro.report import AnalysisReport
from repro.segmenters.groundtruth import GroundTruthSegmenter

PROTOCOL = "ntp"
MESSAGES = 60
SEED = 11


def serial_config() -> ClusteringConfig:
    return ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=1, use_cache=False)
    )


def make_trace():
    model = get_model(PROTOCOL)
    trace = model.generate(MESSAGES, seed=SEED).preprocess()
    return model, trace


class TestParity:
    def test_analyze_matches_manual_stage(self):
        model, trace = make_trace()
        segmenter = GroundTruthSegmenter(model)
        run = api.run_analysis(
            trace, serial_config(), segmenter=segmenter, msgtypes=True
        )
        assert run.msgtypes is not None

        segments = GroundTruthSegmenter(model).segment(trace)
        manual = cluster_message_types(
            segments, len(trace), matrix=run.result.matrix, trace=trace
        )
        assert list(run.msgtypes.labels) == list(manual.labels)
        assert run.msgtypes.epsilon == manual.epsilon

    def test_cluster_matrix_two_step_matches_analyze(self):
        model, trace = make_trace()
        run = api.run_analysis(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )

        segments = GroundTruthSegmenter(model).segment(trace)
        config = serial_config()
        clusterer = FieldTypeClusterer(config)
        analyzable, excluded = clusterer._partition_unique(segments)
        matrix = DissimilarityMatrix.build(
            analyzable,
            penalty_factor=config.penalty_factor,
            options=config.matrix_options,
        )
        result = clusterer.cluster_matrix(matrix, excluded=excluded)
        types = cluster_message_types(
            segments, len(trace), matrix=result.matrix, trace=trace
        )
        assert run.msgtypes is not None
        assert list(types.labels) == list(run.msgtypes.labels)
        assert types.type_count == run.msgtypes.type_count
        assert types.noise_count == run.msgtypes.noise_count

    def test_session_replay_matches_batch(self):
        model, trace = make_trace()
        session = AnalysisSession(
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            protocol=PROTOCOL,
            msgtypes=True,
        )
        messages = list(trace.messages)
        third = (len(messages) + 2) // 3
        for start in range(0, len(messages), third):
            session.append(messages[start : start + third])
        streamed = session.snapshot()
        assert streamed.msgtypes is not None

        batch = api.run_analysis(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        assert batch.msgtypes is not None
        assert list(streamed.msgtypes.labels) == list(batch.msgtypes.labels)
        assert streamed.msgtypes.epsilon == batch.msgtypes.epsilon
        assert streamed.report.msgtype_sizes == batch.report.msgtype_sizes

    def test_msgtypes_off_by_default(self):
        model, trace = make_trace()
        run = api.run_analysis(
            trace, serial_config(), segmenter=GroundTruthSegmenter(model)
        )
        assert run.msgtypes is None
        assert run.report.message_types is None
        assert run.report.msgtype_sizes == []


class TestReport:
    def test_report_carries_stage_summary(self):
        model, trace = make_trace()
        report = api.analyze(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        assert report.message_types is not None and report.message_types >= 1
        assert sum(report.msgtype_sizes) + report.msgtype_noise == len(trace)
        assert report.msgtype_sizes == sorted(report.msgtype_sizes, reverse=True)
        assert "message types:" in report.render()

    def test_report_json_round_trip(self):
        model, trace = make_trace()
        report = api.analyze(
            trace,
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            msgtypes=True,
        )
        restored = AnalysisReport.from_json(report.to_json())
        assert restored.message_types == report.message_types
        assert restored.msgtype_sizes == report.msgtype_sizes
        assert restored.msgtype_noise == report.msgtype_noise
        assert restored.msgtype_epsilon == report.msgtype_epsilon


class TestObservability:
    def test_similarity_span_counts_alignment_work(self):
        model, trace = make_trace()
        segments = GroundTruthSegmenter(model).segment(trace)
        tracer = Tracer()
        with use_tracer(tracer):
            cluster_message_types(segments, len(trace))
        (span,) = tracer.find("msgtypes.similarity")
        attributes = span.attributes
        # Every message has segments: all i < j pairs plus one
        # self-alignment per message.
        assert attributes["pairs"] == MESSAGES * (MESSAGES + 1) // 2
        assert 0 < attributes["cells"] <= attributes["padded_cells"]
