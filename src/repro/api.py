"""Stable public facade: one entry point for library users and CLIs.

The calls every consumer needs:

- :func:`analyze` — pcap/trace in, :class:`~repro.report.AnalysisReport`
  out (load → preprocess → segment → cluster → optional semantics);
- :func:`cluster_segments` — the clustering stage alone, for callers
  that bring their own field candidates;
- :class:`~repro.session.AnalysisSession` — the stateful incremental
  variant: :meth:`~repro.session.AnalysisSession.append` message chunks
  as they arrive, :meth:`~repro.session.AnalysisSession.snapshot` an
  :class:`AnalysisRun` at any point (bit-identical to a batch
  :func:`run_analysis` over the same messages).

All of them accept an optional :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`; when given, they are bound
as the active observability sinks for the duration of the call, so the
caller gets the full span tree and metric snapshot without any global
state.  :func:`run_analysis` is the richer variant behind
:func:`analyze` that also returns the intermediate artefacts (trace,
segments, :class:`~repro.core.pipeline.ClusteringResult`, semantics) —
the ``repro-analyze`` CLI is a thin wrapper over it.

Third-party segmenters plug in through the registry:
:func:`~repro.segmenters.register_segmenter` makes a
:class:`~repro.segmenters.Segmenter` subclass selectable by name
everywhere a ``segmenter=`` parameter or ``--segmenter`` flag is
accepted; :func:`~repro.segmenters.available_segmenters` lists the
names.

Execution knobs (worker count, dtype, storage, cache) ride along on
:attr:`~repro.core.pipeline.ClusteringConfig.matrix_options` — the same
:class:`~repro.core.matrix.MatrixBuildOptions` the CLIs fill from
``--workers`` (``0`` = serial, unset = all cores; more than one worker
runs the matrix's row tiles on a thread pool that shares the segment
blocks and the output matrix zero-copy).

Example::

    from repro import analyze
    from repro.core import ClusteringConfig, MatrixBuildOptions
    from repro.obs import Tracer

    tracer = Tracer()
    config = ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=8, use_cache=True)
    )
    report = analyze("capture.pcap", config, protocol="mystery",
                     port=9999, tracer=tracer)
    print(report.render())
    print(tracer.stage_timings())
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import ClusteringConfig, ClusteringResult, FieldTypeClusterer
from repro.core.segments import Segment
from repro.errors import QuarantineReport
from repro.msgtypes import MessageTypeResult, cluster_message_types
from repro.net.trace import Trace, load_trace
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.report import AnalysisReport
from repro.segmenters import Segmenter
from repro.segmenters.registry import _SEGMENTERS, resolve_segmenter
from repro.semantics import deduce_semantics
from repro.semantics.engine import ClusterSemantics
from repro.session import AnalysisSession
from repro.statemachine.stage import StateMachineResult, infer_session_machine

__all__ = [
    "AnalysisRun",
    "AnalysisSession",
    "SEGMENTERS",
    "analyze",
    "cluster_segments",
    "run_analysis",
]

#: Heuristic segmenters selectable by name.  Alias of the live registry
#: mapping — register via :func:`repro.segmenters.register_segmenter`,
#: not by mutating this dict.
SEGMENTERS: dict[str, type[Segmenter]] = _SEGMENTERS


@dataclass
class AnalysisRun:
    """Everything one :func:`run_analysis` call produced."""

    trace: Trace
    segments: list[Segment]
    result: ClusteringResult
    report: AnalysisReport
    semantics: list[ClusterSemantics] | None = None
    config: ClusteringConfig = field(default_factory=ClusteringConfig)
    #: Malformed-record report from a lenient capture load, if any.
    quarantine: QuarantineReport | None = None
    #: Message-type clustering over the field-type result (NEMETYL
    #: stage), present when the run was asked for ``msgtypes=True``.
    msgtypes: MessageTypeResult | None = None
    #: Protocol state machine inferred over the message-type labels,
    #: present when the run was asked for ``statemachine=True``.
    statemachine: StateMachineResult | None = None


def _observability_scopes(tracer: Tracer | None, metrics: MetricsRegistry | None):
    """Context managers binding the caller's sinks (or no-ops)."""
    tracer_scope = use_tracer(tracer) if tracer is not None else nullcontext()
    metrics_scope = use_metrics(metrics) if metrics is not None else nullcontext()
    return tracer_scope, metrics_scope


def _resolve_segmenter(
    segmenter: str | Segmenter, config: ClusteringConfig | None = None
) -> Segmenter:
    refinement = config.refinement if config is not None else "none"
    return resolve_segmenter(segmenter, refinement=refinement, config=config)


def cluster_segments(
    segments: list[Segment],
    config: ClusteringConfig | None = None,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> ClusteringResult:
    """Cluster field candidates into pseudo data types.

    The clustering stage alone (paper Section III-C..E): dissimilarity
    matrix → epsilon auto-configuration → DBSCAN → refinement.
    """
    tracer_scope, metrics_scope = _observability_scopes(tracer, metrics)
    with tracer_scope, metrics_scope:
        return FieldTypeClusterer(config).cluster(segments)


def run_analysis(
    trace_or_path: Trace | str | Path,
    config: ClusteringConfig | None = None,
    *,
    protocol: str = "unknown",
    port: int | None = None,
    segmenter: str | Segmenter = "nemesys",
    semantics: bool = False,
    msgtypes: bool = False,
    statemachine: bool = False,
    preprocess: bool = True,
    strict: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> AnalysisRun:
    """Full analysis returning every intermediate artefact.

    *trace_or_path* is either a loaded :class:`~repro.net.trace.Trace`
    or a pcap/pcapng path (loaded with *protocol* as label and *port*
    as the UDP/TCP filter).  Raises ValueError when preprocessing
    leaves no messages; segmenter resource guards propagate as
    :class:`~repro.segmenters.SegmenterResourceError`.

    ``config.refinement`` composes a boundary-refinement pass with the
    segmenter (``"pca"`` runs :class:`~repro.segmenters.PcaRefiner`
    after base segmentation).  With ``msgtypes=True`` the run also
    clusters whole messages into message types over the field-type
    result (:attr:`AnalysisRun.msgtypes`, summarized in the report).
    ``statemachine=True`` (implies ``msgtypes=True``) additionally
    groups the *raw* capture into per-conversation sessions and infers
    a deterministic automaton over the per-session message-type
    sequences (:attr:`AnalysisRun.statemachine`, see
    :mod:`repro.statemachine`).

    With ``strict=False`` a malformed capture is loaded leniently:
    records before the first corruption are salvaged and the rest are
    quarantined into :attr:`AnalysisRun.quarantine` (see
    :mod:`repro.errors`) instead of raising
    :class:`~repro.errors.IngestError`.
    """
    config = config or ClusteringConfig()
    msgtypes = msgtypes or statemachine
    tracer_scope, metrics_scope = _observability_scopes(tracer, metrics)
    with tracer_scope, metrics_scope:
        if isinstance(trace_or_path, (str, Path)):
            trace = load_trace(trace_or_path, protocol=protocol, port=port, strict=strict)
        else:
            trace = trace_or_path
        quarantine = trace.quarantine
        # Session tracking needs every occurrence with its timestamp,
        # so keep the raw view before de-duplication strips repeats.
        raw_trace = trace
        if preprocess:
            trace = trace.preprocess()
            # preprocess() returns a fresh Trace that does not carry the
            # capture's quarantine report; re-attach it so the run's
            # trace keeps describing the lenient load it came from.
            trace.quarantine = quarantine
        if not len(trace):
            raise ValueError("no messages to analyze after preprocessing")
        segments = _resolve_segmenter(segmenter, config).segment(trace)
        result = FieldTypeClusterer(config).cluster(segments)
        deduced = deduce_semantics(result, trace) if semantics else None
        types = (
            cluster_message_types(
                segments, len(trace), matrix=result.matrix, trace=trace
            )
            if msgtypes
            else None
        )
        machine = (
            infer_session_machine(raw_trace, types, labeled_trace=trace)
            if statemachine and types is not None
            else None
        )
        report = AnalysisReport.build(
            result, trace, deduced, msgtypes=types, statemachine=machine
        )
    return AnalysisRun(
        trace=trace,
        segments=segments,
        result=result,
        report=report,
        semantics=deduced,
        config=config,
        quarantine=quarantine,
        msgtypes=types,
        statemachine=machine,
    )


def analyze(
    trace_or_path: Trace | str | Path,
    config: ClusteringConfig | None = None,
    *,
    protocol: str = "unknown",
    port: int | None = None,
    segmenter: str | Segmenter = "nemesys",
    semantics: bool = False,
    msgtypes: bool = False,
    statemachine: bool = False,
    preprocess: bool = True,
    strict: bool = True,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> AnalysisReport:
    """Analyze a trace or capture file; returns the analysis report.

    Thin wrapper over :func:`run_analysis` (same keyword arguments,
    spelled out so the surface is introspectable) returning only the
    serializable :class:`AnalysisReport`.
    """
    return run_analysis(
        trace_or_path,
        config,
        protocol=protocol,
        port=port,
        segmenter=segmenter,
        semantics=semantics,
        msgtypes=msgtypes,
        statemachine=statemachine,
        preprocess=preprocess,
        strict=strict,
        tracer=tracer,
        metrics=metrics,
    ).report
