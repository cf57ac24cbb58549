"""Public-API contract: exports resolve, carry docs, and stay stable."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.protocols",
    "repro.segmenters",
    "repro.baselines",
    "repro.metrics",
    "repro.semantics",
    "repro.fuzzing",
    "repro.msgtypes",
    "repro.statemachine",
    "repro.eval",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 30

    def test_top_level_surface(self):
        # The documented quickstart names must stay available.
        for name in (
            "FieldTypeClusterer",
            "NemesysSegmenter",
            "load_trace",
            "get_model",
            "deduce_semantics",
            "MessageFuzzer",
            "MessageTypeClusterer",
            "AnalysisReport",
        ):
            assert name in repro.__all__

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestSurfaceSnapshot:
    """Pins of the stable facade: exported names and exact signatures.

    docs/API.md documents these as the supported surface; changing any
    of them is an API break that must be deliberate — update the pin,
    the docs, and the deprecation note together.
    """

    def test_api_module_all(self):
        import repro.api

        assert repro.api.__all__ == [
            "AnalysisRun",
            "AnalysisSession",
            "SEGMENTERS",
            "analyze",
            "cluster_segments",
            "run_analysis",
        ]

    def test_top_level_additions(self):
        for name in (
            "AnalysisSession",
            "available_segmenters",
            "register_segmenter",
        ):
            assert name in repro.__all__

    def test_analyze_signature(self):
        assert str(inspect.signature(repro.analyze)) == (
            "(trace_or_path: 'Trace | str | Path', "
            "config: 'ClusteringConfig | None' = None, *, "
            "protocol: 'str' = 'unknown', "
            "port: 'int | None' = None, "
            "segmenter: 'str | Segmenter' = 'nemesys', "
            "semantics: 'bool' = False, "
            "msgtypes: 'bool' = False, "
            "statemachine: 'bool' = False, "
            "preprocess: 'bool' = True, "
            "strict: 'bool' = True, "
            "tracer: 'Tracer | None' = None, "
            "metrics: 'MetricsRegistry | None' = None) -> 'AnalysisReport'"
        )

    def test_run_analysis_signature(self):
        assert str(inspect.signature(repro.run_analysis)) == (
            "(trace_or_path: 'Trace | str | Path', "
            "config: 'ClusteringConfig | None' = None, *, "
            "protocol: 'str' = 'unknown', "
            "port: 'int | None' = None, "
            "segmenter: 'str | Segmenter' = 'nemesys', "
            "semantics: 'bool' = False, "
            "msgtypes: 'bool' = False, "
            "statemachine: 'bool' = False, "
            "preprocess: 'bool' = True, "
            "strict: 'bool' = True, "
            "tracer: 'Tracer | None' = None, "
            "metrics: 'MetricsRegistry | None' = None) -> 'AnalysisRun'"
        )

    def test_analyze_takes_no_var_keyword(self):
        # analyze() used to swallow typos through **kwargs; the explicit
        # keyword surface keeps unknown arguments loud.
        kinds = {
            p.kind for p in inspect.signature(repro.analyze).parameters.values()
        }
        assert inspect.Parameter.VAR_KEYWORD not in kinds
        with pytest.raises(TypeError):
            repro.analyze("x.pcap", segmentr="nemesys")

    def test_session_append_signature(self):
        assert str(inspect.signature(repro.AnalysisSession.append)) == (
            "(self, messages_or_trace: "
            "'Trace | str | Path | Iterable[TraceMessage | bytes]', *, "
            "strict: 'bool' = True) -> 'SessionUpdate'"
        )

    def test_session_constructor_keywords(self):
        parameters = inspect.signature(repro.AnalysisSession).parameters
        assert list(parameters) == [
            "config",
            "segmenter",
            "protocol",
            "port",
            "semantics",
            "msgtypes",
            "statemachine",
            "recluster_fraction",
            "epsilon_tolerance",
            "checkpoint_path",
            "wal_max_bytes",
            "resume",
            "tracer",
            "metrics",
        ]


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_classes_and_functions_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{package}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_methods_of_core_classes_documented(self):
        from repro.core import FieldTypeClusterer
        from repro.fuzzing import MessageFuzzer
        from repro.msgtypes import MessageTypeClusterer

        for cls in (FieldTypeClusterer, MessageFuzzer, MessageTypeClusterer):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


class TestImportCost:
    def test_api_import_leaves_the_spline_module_out(self):
        # The spline module is most of the package's import time and
        # only Algorithm 1's smoothing uses it, which imports it itself.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.api; print('scipy.interpolate' in sys.modules)",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]
