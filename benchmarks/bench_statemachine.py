"""State-machine stage benchmark: sessions / inference / export.

Runs the flow-tracking and automaton-inference stages through the
benchmark harness (``harness.py``) on seeded synthetic traces and
writes the grid to ``BENCH_statemachine.json`` (the committed
baseline).  Symbols come from the generators' ground-truth message
kinds so the benchmark isolates this stage from the clustering
pipeline.  An acceptance check rides along: the inferred automaton must
accept every training session — inference only ever generalizes, it
never loses an observed sequence.

Usage::

    python benchmarks/bench_statemachine.py                  # full grid, rewrite JSON
    python benchmarks/bench_statemachine.py --sizes 200      # quick run
    python benchmarks/bench_statemachine.py --sizes 200 --check
        # CI smoke: sessions, states, transitions and alphabet must equal
        # the committed rows'; does not rewrite the JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import harness
from repro.net.flows import sessions_from_trace
from repro.protocols import get_model
from repro.statemachine import infer_state_machine, to_dot, to_json

BENCH_PATH = Path(__file__).parent / "BENCH_statemachine.json"

PROTOCOLS = ("dhcp", "dns", "smb")
DEFAULT_SIZES = (200, 400)
SEED = 42


def bench_case(protocol: str, n: int) -> harness.Case:
    case = harness.Case(f"{protocol} n={n}")
    model = get_model(protocol)
    trace = model.generate(n, seed=SEED)

    sessions = case.stage("sessions", sessions_from_trace, trace)
    sequences = [
        tuple(model.message_kind(m.data) for m in session)
        for session in sessions
    ]
    machine = case.stage("infer", infer_state_machine, sequences)
    case.stage("export", lambda: (to_json(machine), to_dot(machine)))

    accepted = sum(machine.accepts(seq) for seq in sequences)
    assert accepted == len(sequences), (
        f"{protocol} n={n}: automaton rejected "
        f"{len(sequences) - accepted} of its own training sessions"
    )
    case.counts.update(
        sessions=len(sessions),
        states=machine.num_states,
        transitions=machine.num_transitions,
        alphabet=len(machine.alphabet),
    )
    return case


if __name__ == "__main__":
    args = harness.parser(__doc__, sizes=DEFAULT_SIZES, protocols=PROTOCOLS).parse_args()
    cases = (bench_case(p, n) for p in args.protocols for n in args.sizes)
    sys.exit(harness.run(BENCH_PATH, cases, args.check))
