"""State-machine stage: label bridging, wiring, exports, observability."""

import json
from types import SimpleNamespace

import pytest

from repro import AnalysisSession, api
from repro.__main__ import main as repro_main
from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.net.trace import Trace, TraceMessage
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import SPAN_SECONDS_METRIC, Tracer, use_tracer
from repro.protocols import get_model
from repro.report import AnalysisReport
from repro.segmenters.groundtruth import GroundTruthSegmenter
from repro.statemachine import (
    infer_session_machine,
    infer_state_machine,
    label_map,
    machine_from_json,
    to_dot,
    to_json,
    type_symbol,
)
from repro.statemachine.stage import StateMachineResult


def serial_config() -> ClusteringConfig:
    return ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=1)
    )


def dhcp_run(messages=120, seed=3, **kwargs):
    model = get_model("dhcp")
    trace = model.generate(messages, seed=seed)
    return api.run_analysis(
        trace,
        serial_config(),
        segmenter=GroundTruthSegmenter(model),
        statemachine=True,
        **kwargs,
    )


def fake_types(trace: Trace, labels) -> SimpleNamespace:
    # Duck-typed stand-in for MessageTypeResult: the stage only reads
    # .labels and .trace.
    return SimpleNamespace(labels=list(labels), trace=trace)


class TestLabelMap:
    def test_maps_payloads_to_labels(self):
        trace = Trace(
            messages=[TraceMessage(data=b"a"), TraceMessage(data=b"b")],
            protocol="test",
        )
        mapping = label_map(trace, fake_types(trace, [0, 1]))
        assert mapping == {b"a": 0, b"b": 1}

    def test_length_mismatch_raises(self):
        trace = Trace(messages=[TraceMessage(data=b"a")], protocol="test")
        with pytest.raises(ValueError):
            label_map(trace, fake_types(trace, [0, 1]))

    def test_type_symbol_stable(self):
        assert type_symbol(3) == "t3"
        assert type_symbol(-1) == "t-1"


class TestInferSessionMachine:
    def test_dhcp_result_statistics(self):
        run = dhcp_run()
        result = run.statemachine
        assert result is not None
        assert result.session_count >= result.sequence_count > 0
        assert result.state_count == result.machine.num_states > 1
        assert result.transition_count == result.machine.num_transitions > 1
        assert result.history == 1

    def test_noise_dropped_from_sequences(self):
        messages = [
            TraceMessage(data=b"q", timestamp=0.0, src_port=50000, dst_port=445),
            TraceMessage(data=b"n", timestamp=0.1, src_port=50000, dst_port=445),
            TraceMessage(data=b"r", timestamp=0.2, src_port=445, dst_port=50000),
        ]
        trace = Trace(messages=messages, protocol="test")
        types = fake_types(trace, [0, -1, 1])
        result = infer_session_machine(trace, types, labeled_trace=trace)
        assert result.dropped_messages == 1
        assert result.machine.accepts(("t0", "t1"))
        assert "t-1" not in result.machine.alphabet

    def test_result_dict_round_trip(self):
        result = dhcp_run().statemachine
        assert result is not None
        restored = StateMachineResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored.machine == result.machine
        assert restored.session_count == result.session_count
        assert restored.idle_timeout == result.idle_timeout

    def test_span_and_metrics_emitted(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_metrics(registry), use_tracer(tracer):
            model = get_model("dhcp")
            trace = model.generate(60, seed=3)
            run = api.run_analysis(
                trace,
                serial_config(),
                segmenter=GroundTruthSegmenter(model),
                statemachine=True,
                tracer=tracer,
                metrics=registry,
            )
        assert run.statemachine is not None
        (span,) = tracer.find("statemachine.infer")
        assert span.attributes["states"] == run.statemachine.state_count
        assert span.attributes["transitions"] == run.statemachine.transition_count
        assert span.attributes["sessions"] == run.statemachine.session_count
        assert "seconds" not in span.attributes
        durations = registry.histogram(SPAN_SECONDS_METRIC).snapshot(
            span="statemachine.infer", status="ok"
        )
        assert durations["count"] == 1
        assert durations["sum"] == span.wall_seconds


class TestWiring:
    def test_statemachine_implies_msgtypes(self):
        run = dhcp_run(messages=60)
        assert run.msgtypes is not None
        assert run.statemachine is not None

    def test_off_by_default(self):
        model = get_model("dhcp")
        trace = model.generate(40, seed=3)
        run = api.run_analysis(
            trace, serial_config(), segmenter=GroundTruthSegmenter(model)
        )
        assert run.statemachine is None
        assert run.report.states is None

    def test_report_carries_summary_and_round_trips(self):
        run = dhcp_run(messages=60)
        report = run.report
        assert report.states == run.statemachine.state_count
        assert report.transitions == run.statemachine.transition_count
        assert report.sessions == run.statemachine.session_count
        assert "state machine:" in report.render()
        restored = AnalysisReport.from_json(report.to_json())
        assert restored.states == report.states
        assert restored.transitions == report.transitions
        assert restored.sessions == report.sessions

    def test_session_snapshot_infers_machine(self):
        model = get_model("dhcp")
        trace = model.generate(60, seed=3)
        session = AnalysisSession(
            serial_config(),
            segmenter=GroundTruthSegmenter(model),
            protocol="dhcp",
            statemachine=True,
        )
        messages = list(trace.messages)
        half = len(messages) // 2
        session.append(messages[:half])
        session.append(messages[half:])
        run = session.snapshot()
        assert run.statemachine is not None
        assert run.statemachine.state_count > 1
        assert run.report.states == run.statemachine.state_count

    def test_cli_exports_dot_and_json(self, tmp_path, capsys):
        dot_path = tmp_path / "machine.dot"
        json_path = tmp_path / "machine.json"
        code = repro_main(
            [
                "analyze",
                "--model",
                "dhcp",
                "-n",
                "60",
                "--seed",
                "3",
                "--statemachine",
                "--workers",
                "1",
                "--sm-dot",
                str(dot_path),
                "--sm-json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "state machine:" in out
        dot = dot_path.read_text()
        assert dot.startswith("digraph") and "doublecircle" in dot
        machine = machine_from_json(json_path.read_text())
        assert machine.num_states > 1

    def test_cli_exports_require_flag(self, tmp_path, capsys):
        code = repro_main(
            [
                "analyze",
                "--model",
                "dhcp",
                "-n",
                "40",
                "--workers",
                "1",
                "--sm-dot",
                str(tmp_path / "machine.dot"),
            ]
        )
        assert code == 2
        assert "--statemachine" in capsys.readouterr().err


class TestExport:
    def test_dot_and_json_are_byte_stable(self):
        machine = infer_state_machine([("a", "b"), ("a", "b", "a", "b")])
        again = infer_state_machine([("a", "b", "a", "b"), ("a", "b")])
        assert to_dot(machine) == to_dot(again)
        assert to_json(machine) == to_json(again)

    def test_dot_structure(self):
        machine = infer_state_machine([("a",)])
        dot = to_dot(machine)
        assert "__start -> s0;" in dot
        assert '[label="a ×1"]' in dot
        assert dot.endswith("}\n")

    def test_json_round_trip(self):
        machine = infer_state_machine([("a", "b"), ("c",)])
        assert machine_from_json(to_json(machine)) == machine
