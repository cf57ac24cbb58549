"""Output checks and quality scores; never part of a timed op.

The checks decide whether an op failed:

- a batch op's fingerprint (epsilon bits, cluster membership,
  message-type labels, automaton JSON) must equal the first one seen
  for its capture, so every pass, and the traced decomposition, agree
  with ``run_analysis``;
- the inferred automaton must accept every training session;
- a served stream's final ``digest`` must equal the digest of a batch
  ``run_analysis`` over the same messages.

Scores reuse the repository's evaluation code: ground-truth labels from
``repro.eval.truth.label_with_truth``, pairwise scores from
``repro.metrics.pairwise`` (beta=1 for message types, as
``repro.eval.runner`` does), and ``repro.metrics.coverage``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def cluster_sha256(result) -> str:
    """SHA-256 of the sorted cluster membership, as ``AnalysisSession.digest``."""
    clusters = sorted(sorted(int(i) for i in members) for members in result.clusters)
    return hashlib.sha256(json.dumps(clusters, separators=(",", ":")).encode()).hexdigest()


def fingerprint(result, types=None, machine=None) -> str:
    """One hash over everything a batch op decides."""
    from repro.statemachine.export import to_json

    digest = hashlib.sha256()
    digest.update(float(result.epsilon).hex().encode())
    digest.update(cluster_sha256(result).encode())
    if types is not None:
        digest.update(np.asarray(types.labels, dtype=np.int64).tobytes())
    if machine is not None:
        digest.update(to_json(machine.machine).encode())
    return digest.hexdigest()


def rejected_training_sessions(raw_trace, labeled_trace, types, machine) -> int:
    """Training sessions the inferred automaton does not accept."""
    from repro.net.flows import sessions_from_trace
    from repro.statemachine.stage import label_map, session_symbol_sequences, type_symbol

    labels = label_map(labeled_trace, types)

    def symbol_of(message):
        label = labels.get(message.data)
        return None if label is None or label < 0 else type_symbol(label)

    sessions = sessions_from_trace(raw_trace, idle_timeout=machine.idle_timeout)
    sequences, _ = session_symbol_sequences(sessions, symbol_of)
    return sum(not machine.machine.accepts(seq) for seq in sequences)


def batch_digest(result) -> dict:
    """The fields of ``AnalysisSession.digest`` a batch run must reproduce."""
    values = np.ascontiguousarray(result.matrix.values)
    return {
        "matrix_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "clusters_sha256": cluster_sha256(result),
        "epsilon": float(result.epsilon),
    }


def digest_mismatch(served: dict, expected: dict) -> str | None:
    """Names of the digest fields that differ, or None when all match."""
    wrong = [key for key, value in expected.items() if served.get(key) != value]
    return ", ".join(wrong) if wrong else None


def quality(protocol: str, trace, segments, result, types=None) -> dict:
    """Field F(1/4), coverage, and message-type precision against truth."""
    from repro.core.segments import unique_segments
    from repro.eval.truth import label_with_truth
    from repro.metrics.coverage import clustering_coverage
    from repro.metrics.pairwise import score_clustering, score_result
    from repro.protocols import get_model

    model = get_model(protocol)
    labeled = label_with_truth(segments, trace, model)
    truth = {u.data: u.true_type for u in unique_segments(labeled, min_length=1)}
    scores = {
        "field_fscore": score_result(
            result, [truth[u.data] for u in result.segments]
        ).fscore,
        "field_coverage": clustering_coverage(result, trace).ratio,
    }
    if types is not None:
        kinds = [model.message_kind(m.data) for m in trace]
        scores["msgtype_precision"] = score_clustering(
            [(int(label), kinds[i]) for i, label in enumerate(types.labels)],
            beta=1.0,
        ).precision
    return scores
