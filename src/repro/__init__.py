"""repro — Network message field type clustering for protocol reverse
engineering.

Reproduction of Kleber, Kargl, Stute, Hollick: *"Network Message Field
Type Clustering for Reverse Engineering of Unknown Binary Protocols"*,
IEEE DSN-W (DCDS) 2022.

Quickstart (the stable facade, :mod:`repro.api`)::

    from repro import analyze

    report = analyze("capture.pcap", protocol="mystery", port=9999)
    print(report.render())

or stage by stage::

    from repro import FieldTypeClusterer, NemesysSegmenter, load_trace

    trace = load_trace("capture.pcap", protocol="mystery", port=9999)
    segments = NemesysSegmenter().segment(trace.preprocess())
    result = FieldTypeClusterer().cluster(segments)
    for i, members in enumerate(result.clusters):
        print(f"pseudo type {i}: {len(members)} distinct values")

Packages:

- :mod:`repro.api` — the stable public facade (``analyze``,
  ``cluster_segments``) shared by library users and both CLIs,
- :mod:`repro.core` — the clustering method (the paper's contribution),
- :mod:`repro.obs` — spans, metrics, and run manifests,
- :mod:`repro.segmenters` — NEMESYS / Netzob / CSP heuristics,
- :mod:`repro.protocols` — trace generators + ground-truth dissectors,
- :mod:`repro.baselines` — the FieldHunter comparison baseline,
- :mod:`repro.metrics` — pairwise cluster statistics and coverage,
- :mod:`repro.net` — pcap/pcapng and packet-layer substrate, including
  TCP reassembly and conversation/session tracking,
- :mod:`repro.statemachine` — protocol state-machine inference over
  per-session message-type sequences,
- :mod:`repro.eval` — regeneration of every table and figure.
"""

from repro.api import (
    AnalysisRun,
    AnalysisSession,
    analyze,
    cluster_segments,
    run_analysis,
)
from repro.core import (
    ClusteringConfig,
    ClusteringResult,
    FieldTypeClusterer,
    Segment,
    UniqueSegment,
    canberra_dissimilarity,
)
from repro.errors import (
    CacheError,
    ComputeError,
    IngestError,
    QuarantineReport,
    ReproError,
)
from repro.formats import infer_all_templates
from repro.fuzzing import MessageFuzzer
from repro.msgtypes import MessageTypeClusterer
from repro.net.trace import Trace, TraceMessage, load_trace
from repro.protocols import available_protocols, get_model
from repro.report import AnalysisReport
from repro.segmenters import (
    CspSegmenter,
    GroundTruthSegmenter,
    NemesysSegmenter,
    NetzobSegmenter,
    available_segmenters,
    register_segmenter,
)
from repro.semantics import deduce_semantics
from repro.statemachine import StateMachine, infer_state_machine

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "AnalysisRun",
    "AnalysisSession",
    "CacheError",
    "ClusteringConfig",
    "ClusteringResult",
    "ComputeError",
    "CspSegmenter",
    "FieldTypeClusterer",
    "GroundTruthSegmenter",
    "IngestError",
    "MessageFuzzer",
    "MessageTypeClusterer",
    "NemesysSegmenter",
    "NetzobSegmenter",
    "QuarantineReport",
    "ReproError",
    "Segment",
    "StateMachine",
    "Trace",
    "TraceMessage",
    "UniqueSegment",
    "analyze",
    "available_protocols",
    "available_segmenters",
    "canberra_dissimilarity",
    "cluster_segments",
    "deduce_semantics",
    "get_model",
    "infer_all_templates",
    "infer_state_machine",
    "load_trace",
    "register_segmenter",
    "run_analysis",
]
