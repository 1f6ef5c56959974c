"""Concrete test cases: turn an inconsistency into a replayable input sequence.

Every inconsistency reported by the crosscheck stage carries a solver model —
an assignment of the symbolic message fields.  This module materializes that
model into concrete wire buffers (by evaluating every symbolic byte of the
test's messages under the model) and replays the sequence against both agents
concretely.  The replay both reproduces the divergence for a human and acts as
the "no false positives" guarantee: a test case whose replay does not diverge
is not counted as replay-verified, and triage reports its witness as
unconfirmed.

Variables the solver left unbound are zero-filled during materialization, but
never silently: their names are recorded on the resulting
:class:`ConcreteTestCase` (``unbound_variables``) and surfaced by
:meth:`ReplayOutcome.describe`, so a replay that hinges on a default value is
visible as such.  The witness-minimization stage relies on the same mechanism:
dropping a variable from the assignment *is* zero-filling it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.agents import make_agent
from repro.agents.common.base import OpenFlowAgent
from repro.core.crosscheck import Inconsistency
from repro.core.tests_catalog import TestSpec, get_test
from repro.harness.driver import ConcreteRunResult, run_concrete_sequence
from repro.harness.inputs import ControlMessageInput, ProbeInput
from repro.symbex.compile import compile_term
from repro.symbex.expr import BVExpr
from repro.symbex.state import PathState
from repro.wire.buffer import SymBuffer

__all__ = ["ConcreteTestCase", "build_testcase", "replay_testcase",
           "ReplayOutcome", "AgentFactory"]

#: Resolves an agent name to a fresh agent instance (replay needs one per run).
AgentFactory = Callable[[str], OpenFlowAgent]


def _concretize_buffer(buf: SymBuffer, model: Dict[str, int],
                       unbound: Set[str]) -> SymBuffer:
    """Evaluate every symbolic byte of *buf* under *model* (unbound vars -> 0).

    Names of variables that had to fall back to the zero default are added to
    *unbound* rather than silently masked.
    """

    concrete = SymBuffer()
    for byte in buf:
        if isinstance(byte, int):
            concrete.write_u8(byte)
        else:
            # Symbolic bytes over a shared message template compile to the
            # same handful of cached programs; the program's precomputed
            # variable list replaces a per-byte tree walk.
            program = compile_term(byte)
            for name in program.variables:
                if name not in model:
                    unbound.add(name)
            concrete.write_u8(program.run(model, default=0) & 0xFF)
    return concrete


@dataclass
class ConcreteTestCase:
    """A fully concrete input sequence reproducing one inconsistency."""

    test_key: str
    assignment: Dict[str, int]
    inputs: List[Tuple[str, object]]
    inconsistency: Optional[Inconsistency] = None
    #: Variables that appeared in the symbolic inputs but were not bound by
    #: the assignment; their bytes were zero-filled during materialization.
    unbound_variables: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = ["concrete test case for %r" % self.test_key]
        for name, value in sorted(self.assignment.items()):
            lines.append("  %s = 0x%x" % (name, value))
        if self.unbound_variables:
            lines.append("  unbound (zero-filled): %s"
                         % ", ".join(self.unbound_variables))
        for index, (kind, payload) in enumerate(self.inputs):
            if kind == "control":
                lines.append("  input %d: control message %s" % (index, payload.hex()))
            else:
                port, frame = payload
                lines.append("  input %d: probe on port %s (%d bytes)" % (index, port, len(frame)))
        return "\n".join(lines)


def build_testcase(test: Union[str, TestSpec], assignment: Dict[str, int],
                   inconsistency: Optional[Inconsistency] = None,
                   max_inputs: Optional[int] = None) -> ConcreteTestCase:
    """Materialize the test's input sequence under a concrete assignment.

    *max_inputs* truncates the materialized sequence after that many inputs —
    the knob witness minimization turns to drop trailing inputs.
    """

    spec = get_test(test) if isinstance(test, str) else test
    state = PathState(path_id=-1)
    inputs: List[Tuple[str, object]] = []
    unbound: Set[str] = set()
    spec_inputs = spec.inputs if max_inputs is None else spec.inputs[:max_inputs]
    for test_input in spec_inputs:
        if isinstance(test_input, ControlMessageInput):
            symbolic_buf = test_input.build(state)
            inputs.append(("control", _concretize_buffer(symbolic_buf, assignment, unbound)))
        elif isinstance(test_input, ProbeInput):
            port, frame = test_input.build(state)
            if isinstance(port, BVExpr):
                program = compile_term(port)
                for name in program.variables:
                    if name not in assignment:
                        unbound.add(name)
                port = program.run(assignment, default=0)
            inputs.append(("probe", (port, _concretize_buffer(frame, assignment, unbound))))
    return ConcreteTestCase(
        test_key=spec.key,
        assignment=dict(assignment),
        inputs=inputs,
        inconsistency=inconsistency,
        unbound_variables=sorted(unbound),
    )


@dataclass
class ReplayOutcome:
    """Result of replaying a concrete test case against two agents."""

    testcase: ConcreteTestCase
    run_a: ConcreteRunResult
    run_b: ConcreteRunResult

    @property
    def diverged(self) -> bool:
        return self.run_a.trace != self.run_b.trace

    def diff(self):
        """First-divergence diff of the two replay traces (a TraceDiff)."""

        return self.run_a.trace.diff(self.run_b.trace)

    def describe(self) -> str:
        lines = [
            "replay of %s" % self.testcase.test_key,
            "  %s: %s%s" % (self.run_a.agent_name, self.run_a.trace.short(limit=5),
                            " (crashed)" if self.run_a.crashed else ""),
            "  %s: %s%s" % (self.run_b.agent_name, self.run_b.trace.short(limit=5),
                            " (crashed)" if self.run_b.crashed else ""),
            "  diverged: %s" % self.diverged,
        ]
        if self.testcase.unbound_variables:
            lines.append("  unbound variables zero-filled: %s"
                         % ", ".join(self.testcase.unbound_variables))
        return "\n".join(lines)


def replay_testcase(testcase: ConcreteTestCase, agent_a: str, agent_b: str,
                    agent_factory: Optional[AgentFactory] = None) -> ReplayOutcome:
    """Replay a concrete test case against two agents and compare their traces.

    The replay is fully concrete (no symbolic execution involved), so it is an
    independent confirmation that the generated input actually drives the two
    implementations apart.  Agents are instantiated through *agent_factory*
    (``name -> agent``) when given, otherwise through the registry with
    their default settings — the agents Phase 1 explored.
    """

    factory = agent_factory or make_agent
    run_a = run_concrete_sequence(factory(agent_a), testcase.inputs)
    run_b = run_concrete_sequence(factory(agent_b), testcase.inputs)
    return ReplayOutcome(testcase=testcase, run_a=run_a, run_b=run_b)
