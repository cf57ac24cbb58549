"""Semantic deduction engine: rank hypotheses per pseudo data type."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import ClusteringResult
from repro.net.trace import Trace
from repro.obs.tracer import get_tracer
from repro.semantics.detectors import DEFAULT_DETECTORS, Detector
from repro.semantics.features import ClusterView


@dataclass(frozen=True)
class SemanticHypothesis:
    """One (label, confidence) hypothesis with its justification."""

    label: str
    confidence: float
    explanation: str


@dataclass
class ClusterSemantics:
    """Ranked semantic hypotheses for one cluster."""

    cluster_id: int
    distinct_values: int
    total_occurrences: int
    lengths: list[int]
    hypotheses: list[SemanticHypothesis] = field(default_factory=list)

    @property
    def best(self) -> SemanticHypothesis | None:
        return self.hypotheses[0] if self.hypotheses else None

    @property
    def label(self) -> str:
        return self.best.label if self.best else "unknown"

    def render(self) -> str:
        head = (
            f"cluster {self.cluster_id}: {self.distinct_values} values / "
            f"{self.total_occurrences} occurrences, lengths {self.lengths}"
        )
        if not self.hypotheses:
            return head + "\n  (no semantic hypothesis passed its threshold)"
        lines = [head]
        for hypothesis in self.hypotheses:
            lines.append(
                f"  {hypothesis.confidence:4.0%} {hypothesis.label:13s} "
                f"{hypothesis.explanation}"
            )
        return "\n".join(lines)


def deduce_semantics(
    result: ClusteringResult,
    trace: Trace,
    detectors: tuple[Detector, ...] = DEFAULT_DETECTORS,
    min_confidence: float = 0.05,
) -> list[ClusterSemantics]:
    """Run every detector over every cluster of a ClusteringResult.

    Returns one :class:`ClusterSemantics` per cluster with hypotheses
    sorted by descending confidence.  Detector state is per-call —
    detectors may cache their last explanation, so a fresh default
    tuple is used unless the caller supplies instances.  The whole
    deduction runs inside one ``semantics`` span on the active tracer.
    """
    with get_tracer().span(
        "semantics", clusters=result.cluster_count, detectors=len(detectors)
    ) as span:
        out = []
        for cluster_id in range(result.cluster_count):
            members = result.cluster_members(cluster_id)
            view = ClusterView.build(cluster_id, members, trace)
            hypotheses = []
            for detector in detectors:
                confidence = detector.confidence(view)
                if confidence >= min_confidence:
                    hypotheses.append(
                        SemanticHypothesis(
                            label=detector.label,
                            confidence=confidence,
                            explanation=detector.explain(view),
                        )
                    )
            hypotheses.sort(key=lambda h: h.confidence, reverse=True)
            out.append(
                ClusterSemantics(
                    cluster_id=cluster_id,
                    distinct_values=view.distinct_values,
                    total_occurrences=view.total_occurrences,
                    lengths=view.lengths,
                    hypotheses=hypotheses,
                )
            )
        span.set(hypotheses=sum(len(s.hypotheses) for s in out))
    return out
