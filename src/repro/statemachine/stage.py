"""Pipeline stage: sessions + message-type labels -> state machine.

Sits on top of two earlier stages: session tracking
(:mod:`repro.net.flows`) groups the *raw* trace's messages into ordered
conversations, and message-type clustering (:mod:`repro.msgtypes`)
labels the *preprocessed* (de-duplicated) trace's messages.  The bridge
between the two views is payload bytes: de-duplication keeps one
representative per payload, so a ``data -> label`` map carries the
labels back onto every raw occurrence.

Messages without a label — clustering noise (label -1) or payloads the
preprocessed trace never saw (empty messages) — are dropped from the
symbol sequences; their count is reported on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.msgtypes.clustering import MessageTypeResult
from repro.net.flows import DEFAULT_IDLE_TIMEOUT, Session, sessions_from_trace
from repro.net.trace import Trace, TraceMessage
from repro.obs.tracer import get_tracer
from repro.statemachine.inference import (
    DEFAULT_HISTORY,
    StateMachine,
    infer_state_machine,
)


@dataclass
class StateMachineResult:
    """Inferred automaton plus the session statistics behind it."""

    machine: StateMachine
    session_count: int
    sequence_count: int
    dropped_messages: int
    history: int
    idle_timeout: float

    @property
    def state_count(self) -> int:
        return self.machine.num_states

    @property
    def transition_count(self) -> int:
        return self.machine.num_transitions

    def to_dict(self) -> dict:
        return {
            "machine": self.machine.to_dict(),
            "session_count": self.session_count,
            "sequence_count": self.sequence_count,
            "dropped_messages": self.dropped_messages,
            "history": self.history,
            "idle_timeout": self.idle_timeout,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StateMachineResult":
        return cls(
            machine=StateMachine.from_dict(payload["machine"]),
            session_count=int(payload["session_count"]),
            sequence_count=int(payload["sequence_count"]),
            dropped_messages=int(payload["dropped_messages"]),
            history=int(payload["history"]),
            idle_timeout=float(payload["idle_timeout"]),
        )


def label_map(
    labeled_trace: Trace | Sequence[TraceMessage], msgtypes: MessageTypeResult
) -> dict[bytes, int]:
    """``payload bytes -> type label`` over the labeled (deduped) trace."""
    messages = (
        labeled_trace.messages
        if isinstance(labeled_trace, Trace)
        else list(labeled_trace)
    )
    labels = msgtypes.labels
    if len(messages) != len(labels):
        raise ValueError(
            f"label count {len(labels)} does not match "
            f"labeled trace of {len(messages)} messages"
        )
    return {
        message.data: int(label) for message, label in zip(messages, labels)
    }


def session_symbol_sequences(
    sessions: Iterable[Session],
    symbol_of: Callable[[TraceMessage], str | None],
) -> tuple[list[tuple[str, ...]], int]:
    """Per-session symbol sequences; *symbol_of* returning None drops.

    Returns (non-empty sequences, dropped message count).
    """
    sequences: list[tuple[str, ...]] = []
    dropped = 0
    for session in sessions:
        symbols: list[str] = []
        for message in session:
            symbol = symbol_of(message)
            if symbol is None:
                dropped += 1
            else:
                symbols.append(symbol)
        if symbols:
            sequences.append(tuple(symbols))
    return sequences, dropped


def type_symbol(label: int) -> str:
    """Stable symbol name for message-type *label* (e.g. ``t3``)."""
    return f"t{label}"


def infer_session_machine(
    trace: Trace,
    msgtypes: MessageTypeResult,
    labeled_trace: Trace | None = None,
    *,
    history: int = DEFAULT_HISTORY,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    drop_noise: bool = True,
) -> StateMachineResult:
    """Infer the protocol state machine for *trace*.

    *trace* is the raw (pre-preprocessing) trace whose timestamps and
    addressing drive session tracking; *labeled_trace* is the
    preprocessed trace that ``msgtypes.labels`` indexes (defaults to
    ``msgtypes.trace``, falling back to *trace* itself when the stage
    ran without one).  With *drop_noise* (default) messages labeled -1
    are dropped from the sequences rather than becoming a symbol.
    """
    if labeled_trace is None:
        labeled_trace = msgtypes.trace if msgtypes.trace is not None else trace
    with get_tracer().span(
        "statemachine.infer",
        messages=len(trace),
        history=history,
    ) as span:
        labels = label_map(labeled_trace, msgtypes)

        def symbol_of(message: TraceMessage) -> str | None:
            label = labels.get(message.data)
            if label is None or (drop_noise and label < 0):
                return None
            return type_symbol(label)

        sessions = sessions_from_trace(trace, idle_timeout=idle_timeout)
        sequences, dropped = session_symbol_sequences(sessions, symbol_of)
        machine = infer_state_machine(sequences, history=history)
        result = StateMachineResult(
            machine=machine,
            session_count=len(sessions),
            sequence_count=len(sequences),
            dropped_messages=dropped,
            history=history,
            idle_timeout=idle_timeout,
        )
        span.set(
            sessions=result.session_count,
            sequences=result.sequence_count,
            dropped=result.dropped_messages,
            states=machine.num_states,
            transitions=machine.num_transitions,
        )
    return result
