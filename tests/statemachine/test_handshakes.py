"""Acceptance criteria on the synthetic generators.

Two promises from the issue are pinned here:

- ``analyze(statemachine=True)`` yields a *deterministic* automaton —
  bit-identical exported JSON across ``workers ∈ {0, 2, 4}`` — on all
  six golden protocols, and
- on the DHCP / SMB / DNS generators the automaton inferred from
  training sessions accepts ≥ 95% of held-out sessions while rejecting
  shuffled-type negative sessions.
"""

import random

import pytest

from repro import api
from repro.core.matrix import MatrixBuildOptions
from repro.core.pipeline import ClusteringConfig
from repro.net.flows import sessions_from_trace
from repro.protocols import get_model
from repro.segmenters.groundtruth import GroundTruthSegmenter
from repro.statemachine import (
    infer_state_machine,
    label_map,
    to_json,
    type_symbol,
)

GOLDEN_PROTOCOLS = ["awdl", "dhcp", "dns", "nbns", "ntp", "smb"]
HANDSHAKE_PROTOCOLS = ["dhcp", "smb", "dns"]

#: Mirrors repro.eval.runner.HOLDOUT_STRIDE — a deterministic 80/20
#: split spread across the capture.
HOLDOUT_STRIDE = 5


def config(workers: int) -> ClusteringConfig:
    return ClusteringConfig(
        matrix_options=MatrixBuildOptions(workers=workers)
    )


def analyzed(protocol: str, messages: int, workers: int = 1, seed: int = 3):
    """(raw trace, AnalysisRun) for a generated capture."""
    model = get_model(protocol)
    raw_trace = model.generate(messages, seed=seed)
    run = api.run_analysis(
        raw_trace,
        config(workers),
        segmenter=GroundTruthSegmenter(model),
        statemachine=True,
    )
    assert run.statemachine is not None
    return raw_trace, run


def session_label_sequences(raw_trace, run) -> list[tuple[str, ...]]:
    """Per-session type-symbol sequences, noise positions dropped."""
    assert run.msgtypes is not None
    labels = label_map(run.trace, run.msgtypes)
    sequences = []
    for session in sessions_from_trace(raw_trace):
        symbols = tuple(
            type_symbol(labels[m.data])
            for m in session
            if labels.get(m.data, -1) >= 0
        )
        if symbols:
            sequences.append(symbols)
    return sequences


class TestWorkerDeterminism:
    @pytest.mark.parametrize("protocol", GOLDEN_PROTOCOLS)
    def test_automaton_bit_identical_across_worker_counts(self, protocol):
        exports = []
        for workers in (0, 2, 4):
            _, run = analyzed(protocol, messages=80, workers=workers)
            exports.append(to_json(run.statemachine.machine))
        assert exports[0] == exports[1] == exports[2]


class TestHoldoutAcceptance:
    @pytest.mark.parametrize("protocol", HANDSHAKE_PROTOCOLS)
    def test_holdout_accepted_and_shuffles_rejected(self, protocol):
        raw_trace, run = analyzed(protocol, messages=240)
        sequences = session_label_sequences(raw_trace, run)
        holdout = sequences[HOLDOUT_STRIDE - 1 :: HOLDOUT_STRIDE]
        train = [
            seq
            for index, seq in enumerate(sequences)
            if index % HOLDOUT_STRIDE != HOLDOUT_STRIDE - 1
        ]
        assert len(holdout) >= 5, "generator produced too few sessions"
        machine = infer_state_machine(train)

        accepted = sum(machine.accepts(seq) for seq in holdout)
        assert accepted / len(holdout) >= 0.95

        # Negative sessions: shuffle the type order of each held-out
        # session (skipping sessions whose symbols admit no reordering).
        rng = random.Random(11)
        negatives = []
        for seq in holdout:
            if len(set(seq)) < 2:
                continue
            shuffled = list(seq)
            while tuple(shuffled) == seq:
                rng.shuffle(shuffled)
            negatives.append(tuple(shuffled))
        assert negatives, "no shufflable held-out sessions"
        rejected = sum(not machine.accepts(seq) for seq in negatives)
        assert rejected / len(negatives) >= 0.9

    @pytest.mark.parametrize("protocol", HANDSHAKE_PROTOCOLS)
    def test_full_machine_accepts_own_sessions(self, protocol):
        raw_trace, run = analyzed(protocol, messages=120)
        sequences = session_label_sequences(raw_trace, run)
        machine = run.statemachine.machine
        assert sequences
        assert all(machine.accepts(seq) for seq in sequences)
