"""The test driver that runs one agent against one test specification.

Phase-1 exploration builds a *program* — a deterministic callable over a
:class:`~repro.symbex.state.PathState` — that the exploration engine re-runs
once per path.  The same driver also supports fully concrete runs (used to
replay generated test cases and by the OFTest-style baseline).

Decision-free input builds are recorded once per exploration.  The first
time :meth:`TestDriver.program` builds an input, it notes the symbols the
build declared, the constraints it assumed and the value it returned.  If
the build made no branch decision and no event, that record stands in for
the build on every later path: the symbols and constraints are replayed in
their recorded order and each agent gets its own copy of the recorded
buffers.  Any other build runs on every path.  The path a record produces is
the one a fresh build would, so explored path conditions and traces are
unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.agents.common.base import OpenFlowAgent
from repro.agents.common.context import RecordingContext
from repro.core.events import Event
from repro.core.trace import OutputTrace
from repro.errors import AgentCrash, HarnessError
from repro.harness.inputs import ControlMessageInput, ProbeInput, TestInput
from repro.openflow.messages import Hello
from repro.symbex.expr import BoolExpr
from repro.symbex.state import PathState
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue

__all__ = ["TestDriver", "ConcreteRunResult", "run_concrete_sequence"]


class TestDriver:
    """Builds the per-path program for (agent factory, test specification)."""

    #: Not a test class, whatever its name: keeps pytest from collecting it.
    __test__ = False

    def __init__(self, agent_factory: Callable[[], OpenFlowAgent],
                 inputs: Sequence[TestInput],
                 coverage_tracker=None) -> None:
        self.agent_factory = agent_factory
        self.inputs = list(inputs)
        self.coverage_tracker = coverage_tracker
        # Input index -> its recorded build, or None for a build that must
        # run on every path (it branched or emitted an event).
        self._recorded: Dict[int, Optional[_RecordedBuild]] = {}

    # ------------------------------------------------------------------
    # The symbolic program
    # ------------------------------------------------------------------

    def program(self, state: PathState) -> OutputTrace:
        """Run the whole input sequence against a fresh agent instance."""

        agent = self.agent_factory()
        ctx = RecordingContext(sink=state.record_event)
        agent.attach(ctx)

        # Connection setup: the controller's HELLO, processed concretely.
        ctx.set_input_index(-1)
        self._feed_control(agent, ctx, Hello(xid=0).pack())

        for index, test_input in enumerate(self.inputs):
            if agent.crashed:
                break  # the process is gone; nothing further can be observed
            ctx.set_input_index(index)
            if isinstance(test_input, ControlMessageInput):
                buf = self._build(index, test_input, state)
                self._feed_control(agent, ctx, buf)
            elif isinstance(test_input, ProbeInput):
                port, frame = self._build(index, test_input, state)
                self._feed_probe(agent, ctx, port, frame)
            else:
                raise HarnessError("unknown test input %r" % (test_input,))

        trace = OutputTrace.from_events(ctx.events)
        state.data["trace"] = trace
        return trace

    def _build(self, index: int, test_input: TestInput, state: PathState) -> Any:
        """Input *index* built on *state*: from its record, or run afresh."""

        recorded = self._recorded.get(index)
        # A symbol declared earlier with another width makes a fresh build
        # raise; only a fresh build reports that.
        if recorded is not None and all(
                state.symbols.get(name, width) == width
                for name, width in recorded.symbols.items()):
            state.symbols.update(recorded.symbols)
            for constraint in recorded.constraints:
                state.condition.add(constraint)
            return _private_copy(recorded.value)
        symbols = len(state.symbols)
        constraints = len(state.condition)
        decisions = len(state.decisions)
        events = len(state.events)
        value = test_input.build(state)
        if index in self._recorded:
            return value
        if len(state.decisions) == decisions and len(state.events) == events:
            self._recorded[index] = _RecordedBuild(
                dict(list(state.symbols.items())[symbols:]),
                state.condition.since(constraints), value)
            return _private_copy(value)
        self._recorded[index] = None
        return value

    def _feed_control(self, agent: OpenFlowAgent, ctx: RecordingContext,
                      buf: SymBuffer) -> None:
        if self.coverage_tracker is not None:
            with self.coverage_tracker.tracking():
                self._dispatch_control(agent, ctx, buf)
        else:
            self._dispatch_control(agent, ctx, buf)

    @staticmethod
    def _dispatch_control(agent: OpenFlowAgent, ctx: RecordingContext,
                          buf: SymBuffer) -> None:
        try:
            agent.handle_control_buffer(buf)
        except AgentCrash as crash:
            ctx.crash(crash.reason)

    def _feed_probe(self, agent: OpenFlowAgent, ctx: RecordingContext,
                    port: FieldValue, frame: SymBuffer) -> None:
        before = len(ctx)
        if self.coverage_tracker is not None:
            with self.coverage_tracker.tracking():
                self._dispatch_probe(agent, ctx, port, frame)
        else:
            self._dispatch_probe(agent, ctx, port, frame)
        if len(ctx) == before:
            # No observable output: log an explicit empty probe response (§3.3).
            ctx.probe_dropped()

    @staticmethod
    def _dispatch_probe(agent: OpenFlowAgent, ctx: RecordingContext,
                        port: FieldValue, frame: SymBuffer) -> None:
        try:
            agent.handle_dataplane_packet(port, frame)
        except AgentCrash as crash:
            ctx.crash(crash.reason)


class _RecordedBuild:
    """What one decision-free input build did to a path state."""

    __slots__ = ("symbols", "constraints", "value")

    def __init__(self, symbols: Dict[str, int], constraints: List[BoolExpr],
                 value: Any) -> None:
        self.symbols = symbols
        self.constraints = constraints
        self.value = value


def _private_copy(value: Any) -> Any:
    """*value* with every buffer copied, so an agent cannot alter the record."""

    if isinstance(value, SymBuffer):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_private_copy(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Concrete replay support
# ---------------------------------------------------------------------------


@dataclass
class ConcreteRunResult:
    """Outcome of running a fully concrete input sequence against an agent."""

    agent_name: str
    events: List[Event] = field(default_factory=list)
    trace: OutputTrace = field(default_factory=lambda: OutputTrace(items=()))
    crashed: bool = False
    wall_time: float = 0.0
    #: How many of the supplied inputs the agent actually processed before it
    #: stopped (a crashed agent ignores the rest).  Witness minimization uses
    #: this as a free upper bound when dropping trailing inputs.
    inputs_consumed: int = 0


def run_concrete_sequence(agent: OpenFlowAgent,
                          inputs: Sequence[Tuple[str, object]]) -> ConcreteRunResult:
    """Feed a concrete input sequence to *agent* and collect its trace.

    *inputs* is a list of ``("control", SymBuffer)`` and
    ``("probe", (port, SymBuffer))`` pairs — the format produced by
    :meth:`repro.core.testcase.ConcreteTestCase.concrete_inputs`.
    """

    started = time.perf_counter()
    ctx = RecordingContext()
    agent.attach(ctx)
    ctx.set_input_index(-1)
    try:
        agent.handle_control_buffer(Hello(xid=0).pack())
    except AgentCrash as crash:
        ctx.crash(crash.reason)

    consumed = 0
    for index, (kind, payload) in enumerate(inputs):
        if agent.crashed:
            break
        consumed += 1
        ctx.set_input_index(index)
        try:
            if kind == "control":
                agent.handle_control_buffer(payload)
            elif kind == "probe":
                port, frame = payload
                before = len(ctx)
                agent.handle_dataplane_packet(port, frame)
                if len(ctx) == before:
                    ctx.probe_dropped()
            else:
                raise HarnessError("unknown concrete input kind %r" % (kind,))
        except AgentCrash as crash:
            ctx.crash(crash.reason)

    return ConcreteRunResult(
        agent_name=agent.NAME,
        events=list(ctx.events),
        trace=OutputTrace.from_events(ctx.events),
        crashed=agent.crashed,
        wall_time=time.perf_counter() - started,
        inputs_consumed=consumed,
    )
