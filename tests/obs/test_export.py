"""Run-manifest schema, config fingerprints, and Prometheus round-trips."""

import dataclasses
import json

import pytest

from repro.core.pipeline import ClusteringConfig
from repro.obs.export import (
    MANIFEST_SCHEMA,
    config_fingerprint,
    parse_prometheus_text,
    prometheus_text,
    run_manifest,
    validate_manifest,
    write_manifest,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def traced() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline", segments=10):
        with tracer.span("matrix"):
            pass
    return tracer


class TestManifest:
    def test_manifest_is_schema_valid_and_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc()
        manifest = run_manifest(traced(), registry, config=ClusteringConfig())
        validate_manifest(manifest)
        reparsed = json.loads(json.dumps(manifest))
        validate_manifest(reparsed)
        assert reparsed["schema"] == MANIFEST_SCHEMA
        assert reparsed["spans"][0]["name"] == "pipeline"
        assert reparsed["spans"][0]["children"][0]["name"] == "matrix"
        assert "repro_c_total" in reparsed["metrics"]

    def test_manifest_without_config_has_null_fingerprint(self):
        manifest = run_manifest(traced())
        validate_manifest(manifest)
        assert manifest["config"] is None
        assert manifest["config_fingerprint"] is None

    def test_validate_rejects_missing_keys(self):
        manifest = run_manifest(traced())
        del manifest["spans"]
        with pytest.raises(ValueError, match="spans"):
            validate_manifest(manifest)

    def test_validate_rejects_bad_span_node(self):
        manifest = run_manifest(traced())
        manifest["spans"][0]["status"] = "exploded"
        with pytest.raises(ValueError, match="status"):
            validate_manifest(manifest)
        manifest = run_manifest(traced())
        del manifest["spans"][0]["children"][0]["name"]
        with pytest.raises(ValueError, match="children"):
            validate_manifest(manifest)

    def test_write_manifest(self, tmp_path):
        path = write_manifest(
            tmp_path / "run.json", traced(), MetricsRegistry(), ClusteringConfig()
        )
        manifest = json.loads(path.read_text())
        validate_manifest(manifest)
        assert manifest["config"]["merge"] is True


class TestConfigFingerprint:
    def test_equal_configs_share_fingerprint(self):
        assert config_fingerprint(ClusteringConfig()) == config_fingerprint(
            ClusteringConfig()
        )

    def test_field_change_changes_fingerprint(self):
        assert config_fingerprint(ClusteringConfig()) != config_fingerprint(
            ClusteringConfig(sensitivity=2.0)
        )

    def test_nested_matrix_options_participate(self):
        from repro.core.matrix import MatrixBuildOptions

        base = ClusteringConfig(matrix_options=MatrixBuildOptions())
        mapped = ClusteringConfig(matrix_options=MatrixBuildOptions(storage="memmap"))
        assert config_fingerprint(base) != config_fingerprint(mapped)

    def test_defaulted_fields_add_nothing_at_any_depth(self):
        from repro.core.matrix import MatrixBuildOptions

        @dataclasses.dataclass(frozen=True)
        class Extended(MatrixBuildOptions):
            extra_knob: str = "off"

        base = ClusteringConfig(matrix_options=MatrixBuildOptions())
        assert config_fingerprint(
            ClusteringConfig(matrix_options=Extended(dtype="float64"))
        ) == config_fingerprint(base)
        assert config_fingerprint(
            ClusteringConfig(matrix_options=Extended(extra_knob="on"))
        ) != config_fingerprint(base)
        # An explicitly passed default is still a default; a value of
        # another type is not.
        assert config_fingerprint(ClusteringConfig(sensitivity=1.0)) == (
            config_fingerprint(ClusteringConfig())
        )
        assert config_fingerprint(ClusteringConfig(sensitivity=1)) != (
            config_fingerprint(ClusteringConfig())
        )


class TestPrometheus:
    def test_round_trip_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="the help").inc(3, kind="a")
        registry.gauge("repro_g").set(2.5)
        registry.histogram("repro_h", buckets=(0.1, 1)).observe(0.5, stage="matrix")
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("repro_c_total", (("kind", "a"),))] == 3
        assert samples[("repro_g", ())] == 2.5
        assert samples[("repro_h_bucket", (("le", "0.1"), ("stage", "matrix")))] == 0
        assert samples[("repro_h_bucket", (("le", "1"), ("stage", "matrix")))] == 1
        assert samples[("repro_h_bucket", (("le", "+Inf"), ("stage", "matrix")))] == 1
        assert samples[("repro_h_sum", (("stage", "matrix"),))] == 0.5
        assert samples[("repro_h_count", (("stage", "matrix"),))] == 1

    def test_type_and_help_lines_present(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="counts things").inc()
        text = prometheus_text(registry)
        assert "# HELP repro_c_total counts things" in text
        assert "# TYPE repro_c_total counter" in text

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc(1, path='a"b\\c')
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("repro_c_total", (("path", 'a"b\\c'),))] == 1

    @pytest.mark.parametrize(
        "value",
        [
            "a\\nb",  # a, backslash, n, b: not a newline escape
            'say \\"hi\\"',
            "C:\\\\share\\\\n",
            "two\nlines",
        ],
    )
    def test_escape_sequences_decode_once(self, value):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc(1, path=value)
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples == {("repro_c_total", (("path", value),)): 1}

    def test_empty_registry_serializes_to_empty_text(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a sample line at all!!!")
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_ok notanumber")

    def test_write_prometheus(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").inc()
        path = write_prometheus(tmp_path / "metrics.prom", registry)
        assert parse_prometheus_text(path.read_text()) == {("repro_c_total", ()): 1.0}
