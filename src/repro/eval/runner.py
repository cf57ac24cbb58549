"""Experiment runner: one function per paper table/figure cell.

Every run is deterministic given (protocol, message count, seed), so the
benchmark harness and the CLI regenerate identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api import cluster_segments
from repro.core.pipeline import ClusteringConfig
from repro.errors import ComputeError
from repro.eval.truth import label_with_truth
from repro.metrics import clustering_coverage, score_clustering, score_result
from repro.metrics.pairwise import ClusterScore
from repro.msgtypes import cluster_message_types
from repro.net.flows import sessions_from_trace
from repro.net.trace import Trace
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.protocols import get_model
from repro.protocols.base import ProtocolModel
from repro.segmenters import (
    GroundTruthSegmenter,
    Segmenter,
    SegmenterResourceError,
    resolve_segmenter,
)
from repro.statemachine import (
    infer_session_machine,
    infer_state_machine,
    transition_coverage,
    type_symbol,
)
from repro.statemachine.stage import label_map

__all__ = [
    "DEFAULT_SEED",
    "ExperimentCell",
    "HEURISTIC_SEGMENTERS",
    "Table1Row",
    "cluster_segments",
    "expected_min_samples",
    "make_segmenter",
    "prepare_trace",
    "run_cell",
    "run_table1_row",
]

DEFAULT_SEED = 42

HEURISTIC_SEGMENTERS = ("netzob", "nemesys", "csp")

CELLS_METRIC = "repro_eval_cells_total"

_CELLS_HELP = "Evaluation sweep cells, by outcome (ok/failed/resumed)."


def count_cell(status: str) -> None:
    """Increment ``repro_eval_cells_total{status=...}``."""
    get_metrics().counter(CELLS_METRIC, help=_CELLS_HELP).inc(status=status)


def make_segmenter(name: str, model: ProtocolModel) -> Segmenter:
    """Instantiate a segmenter by table name.

    "groundtruth" is special-cased — it wraps the protocol model's
    dissector, which the name-only registry cannot construct; every
    other name resolves through
    :func:`repro.segmenters.resolve_segmenter`.
    """
    name = name.lower()
    if name == "groundtruth":
        return GroundTruthSegmenter(model)
    try:
        return resolve_segmenter(name)
    except ValueError:
        raise KeyError(f"unknown segmenter {name!r}") from None


@dataclass(frozen=True)
class ExperimentCell:
    """One (protocol, size, segmenter[, refinement]) evaluation outcome."""

    protocol: str
    message_count: int
    segmenter: str
    failed: bool = False
    failure_class: str = ""
    failure_reason: str = ""
    score: ClusterScore | None = None
    coverage: float | None = None
    epsilon: float | None = None
    unique_segments: int = 0
    runtime_seconds: float = 0.0
    #: Boundary-refinement pass composed with the segmenter ("none"
    #: keeps legacy cells indistinguishable from pre-grid sweeps).
    refinement: str = "none"
    #: Boundary decisions the refinement pass applied (0 for "none").
    boundaries_moved: int = 0
    #: Message-type stage outcome, when the cell ran with msgtypes.
    msgtype_count: int | None = None
    msgtype_noise: int | None = None
    msgtype_epsilon: float | None = None
    msgtype_precision: float | None = None
    #: State-machine stage outcome, when the cell ran with statemachine.
    sm_states: int | None = None
    sm_transitions: int | None = None
    #: Fraction of held-out sessions the automaton accepts.
    sm_holdout_accept: float | None = None
    #: Fraction of ground-truth-kind transitions the inferred automaton
    #: also walks (None when the model defines no message kinds).
    sm_truth_coverage: float | None = None

    @property
    def summary(self) -> str:
        if self.failed:
            return "fails"
        assert self.score is not None
        parts = (
            f"P={self.score.precision:.2f} R={self.score.recall:.2f} "
            f"F={self.score.fscore:.2f}"
        )
        if self.coverage is not None:
            parts += f" cov={self.coverage:.0%}"
        if self.msgtype_count is not None:
            parts += f" types={self.msgtype_count}"
        if self.sm_states is not None:
            parts += f" states={self.sm_states}"
        return parts


def prepare_trace(protocol: str, message_count: int, seed: int = DEFAULT_SEED) -> tuple[
    ProtocolModel, Trace
]:
    """Generate and preprocess the evaluation trace for one row."""
    model = get_model(protocol)
    trace = model.generate(message_count, seed=seed).preprocess()
    return model, trace


#: Every HOLDOUT_STRIDE-th session is held out of state-machine
#: training and used to measure acceptance (a deterministic 80/20 split
#: spread across the capture).
HOLDOUT_STRIDE = 5


def _statemachine_metrics(
    model: ProtocolModel,
    raw_trace: Trace,
    labeled_trace: Trace,
    types,
    sm_result,
) -> tuple[float | None, float | None]:
    """(held-out acceptance, ground-truth transition coverage).

    Holdout: the automaton is re-inferred from the training sessions
    only and asked to accept the held-out sessions' type sequences.
    Truth coverage: a reference automaton inferred from the model's
    ground-truth message kinds is walked in parallel with the full
    inferred automaton (see
    :func:`repro.statemachine.transition_coverage`); None when the
    model defines no message kinds.
    """
    labels = label_map(labeled_trace, types)
    try:
        kind_of = {m.data: model.message_kind(m.data) for m in labeled_trace}
    except NotImplementedError:
        kind_of = None
    sessions = sessions_from_trace(raw_trace, idle_timeout=sm_result.idle_timeout)
    label_seqs: list[tuple[str, ...]] = []
    kind_seqs: list[tuple[str, ...]] = []
    for session in sessions:
        lbl_seq: list[str] = []
        kind_seq: list[str] = []
        for message in session:
            label = labels.get(message.data)
            if label is None or label < 0:
                continue  # drop noise positions from both views
            lbl_seq.append(type_symbol(label))
            if kind_of is not None:
                kind_seq.append(kind_of[message.data])
        if lbl_seq:
            label_seqs.append(tuple(lbl_seq))
            kind_seqs.append(tuple(kind_seq))
    holdout = label_seqs[HOLDOUT_STRIDE - 1 :: HOLDOUT_STRIDE]
    train = [
        seq
        for index, seq in enumerate(label_seqs)
        if index % HOLDOUT_STRIDE != HOLDOUT_STRIDE - 1
    ]
    accept: float | None = None
    if holdout and train:
        trained = infer_state_machine(train, history=sm_result.history)
        accept = sum(trained.accepts(seq) for seq in holdout) / len(holdout)
    elif label_seqs:
        accept = sum(
            sm_result.machine.accepts(seq) for seq in label_seqs
        ) / len(label_seqs)
    coverage: float | None = None
    if kind_of is not None and kind_seqs:
        truth = infer_state_machine(kind_seqs, history=sm_result.history)
        coverage = transition_coverage(
            truth, sm_result.machine, zip(kind_seqs, label_seqs)
        )
    return accept, coverage


def run_cell(
    protocol: str,
    message_count: int,
    segmenter_name: str,
    seed: int = DEFAULT_SEED,
    config: ClusteringConfig | None = None,
    *,
    refinement: str = "none",
    msgtypes: bool = False,
    statemachine: bool = False,
) -> ExperimentCell:
    """Run segmentation + clustering + scoring for one table cell.

    The whole cell runs inside one ``eval.cell`` span, so eval run
    manifests attribute segmentation/pipeline time to their table cell;
    the cell's ``runtime_seconds`` is that span's wall time.
    Any exception raised while evaluating the cell — not just the
    segmenter resource guard — is recorded as a *failed* cell (error
    class + message land in the span and hence the run manifest) so a
    sweep continues past one broken cell instead of aborting.  Unknown
    protocol or segmenter names still raise immediately: those are
    caller errors, not evaluation outcomes.

    *refinement* composes a boundary-refinement pass with the segmenter
    (the scenario-grid axis); with *msgtypes* the cell also runs the
    message-type stage and scores it against the protocol model's
    ground-truth message kinds (None when the model defines none).
    With *statemachine* (implies *msgtypes*) the cell additionally
    infers the per-session state machine and reports its size, held-out
    session acceptance, and transition coverage against an automaton
    built from the model's ground-truth kinds.
    """
    msgtypes = msgtypes or statemachine
    model = get_model(protocol)
    segmenter = make_segmenter(segmenter_name, model)
    if refinement != "none":
        segmenter = resolve_segmenter(segmenter, refinement=refinement, config=config)
    failure: tuple[str, str] | None = None
    with get_tracer().span(
        "eval.cell",
        protocol=protocol,
        messages=message_count,
        segmenter=segmenter_name,
        refinement=refinement,
    ) as span:
        try:
            raw_trace = model.generate(message_count, seed=seed)
            trace = raw_trace.preprocess()
            segments = segmenter.segment(trace)
            boundaries_moved = (
                segmenter.last_refinement.boundaries_moved
                if refinement != "none"
                else 0
            )
            if segmenter_name != "groundtruth":
                segments = label_with_truth(segments, trace, model)
            result = cluster_segments(segments, config)
            score = score_result(result)
            coverage = clustering_coverage(result, trace).ratio
            types = (
                cluster_message_types(
                    segments, len(trace), matrix=result.matrix, trace=trace
                )
                if msgtypes
                else None
            )
            msgtype_precision = None
            if types is not None:
                try:
                    kinds = [model.message_kind(m.data) for m in trace]
                except NotImplementedError:
                    kinds = None
                if kinds is not None:
                    msgtype_precision = score_clustering(
                        [
                            (int(label), kinds[i])
                            for i, label in enumerate(types.labels)
                        ],
                        beta=1.0,
                    ).precision
            sm_result = None
            sm_accept = sm_coverage = None
            if statemachine and types is not None:
                sm_result = infer_session_machine(
                    raw_trace, types, labeled_trace=trace
                )
                sm_accept, sm_coverage = _statemachine_metrics(
                    model, raw_trace, trace, types, sm_result
                )
        except SegmenterResourceError as error:
            failure = ("SegmenterResourceError", str(error))
        except Exception as error:  # the per-cell exception barrier
            failure = (type(error).__name__, str(error))
        if failure is not None:
            span.set(failed=True, error_class=failure[0], reason=failure[1])
        else:
            span.set(
                fscore=round(score.fscore, 4),
                clusters=result.cluster_count,
                epsilon=result.epsilon,
            )
            if refinement != "none":
                span.set(boundaries_moved=boundaries_moved)
            if types is not None:
                span.set(msgtype_count=types.type_count, msgtype_noise=types.noise_count)
            if sm_result is not None:
                span.set(
                    sm_states=sm_result.state_count,
                    sm_transitions=sm_result.transition_count,
                )
    if failure is not None:
        count_cell("failed")
        return ExperimentCell(
            protocol=protocol,
            message_count=message_count,
            segmenter=segmenter_name,
            failed=True,
            failure_class=failure[0],
            failure_reason=failure[1],
            runtime_seconds=span.wall_seconds,
            refinement=refinement,
        )
    count_cell("ok")
    return ExperimentCell(
        protocol=protocol,
        message_count=message_count,
        segmenter=segmenter_name,
        score=score,
        coverage=coverage,
        epsilon=result.epsilon,
        unique_segments=len(result.segments),
        runtime_seconds=span.wall_seconds,
        refinement=refinement,
        boundaries_moved=boundaries_moved,
        msgtype_count=types.type_count if types is not None else None,
        msgtype_noise=types.noise_count if types is not None else None,
        msgtype_epsilon=float(types.epsilon) if types is not None else None,
        msgtype_precision=msgtype_precision,
        sm_states=sm_result.state_count if sm_result is not None else None,
        sm_transitions=(
            sm_result.transition_count if sm_result is not None else None
        ),
        sm_holdout_accept=sm_accept,
        sm_truth_coverage=sm_coverage,
    )


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I: clustering from ground-truth segments."""

    protocol: str
    message_count: int
    unique_fields: int
    epsilon: float
    score: ClusterScore

    @property
    def summary(self) -> str:
        return (
            f"{self.protocol:6s} {self.message_count:5d} {self.unique_fields:6d} "
            f"{self.epsilon:6.3f} {self.score.precision:5.2f} "
            f"{self.score.recall:5.2f} {self.score.fscore:5.2f}"
        )


def run_table1_row(
    protocol: str,
    message_count: int,
    seed: int = DEFAULT_SEED,
    config: ClusteringConfig | None = None,
) -> Table1Row:
    """One Table I row: cluster ground-truth segments of one trace."""
    cell = run_cell(protocol, message_count, "groundtruth", seed=seed, config=config)
    if cell.failed:
        raise ComputeError(
            f"table1 cell {protocol}/{message_count} failed: "
            f"{cell.failure_class}: {cell.failure_reason}"
        )
    assert cell.score is not None and cell.epsilon is not None
    return Table1Row(
        protocol=protocol,
        message_count=message_count,
        unique_fields=cell.unique_segments,
        epsilon=cell.epsilon,
        score=cell.score,
    )


def expected_min_samples(unique_count: int) -> int:
    """Reference for reports: the paper's ln-n rule."""
    return max(2, round(math.log(unique_count))) if unique_count > 1 else 1
