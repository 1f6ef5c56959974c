"""Tests for the harness driver, trace normalization, events and agent context."""

import pytest

from repro.agents import AGENT_REGISTRY, make_agent
from repro.agents.common.context import RecordingContext
from repro.core.events import (
    AgentCrashEvent,
    ControllerMessageEvent,
    DataplaneOutEvent,
    ProbeDroppedEvent,
)
from repro.core.trace import OutputTrace, normalize_events, normalize_message
from repro.core.variants import concretization_spec
from repro.errors import HarnessError
from repro.harness.driver import TestDriver, run_concrete_sequence
from repro.harness.inputs import ControlMessageInput, ProbeInput
from repro.openflow import constants as c
from repro.openflow.messages import (
    BarrierReply,
    EchoReply,
    ErrorMsg,
    FlowRemoved,
    GetConfigReply,
    Hello,
    PacketIn,
    QueueGetConfigReply,
    StatsReply,
)
from repro.packetlib.builder import build_tcp_packet
from repro.symbex.engine import Engine
from repro.symbex.state import PathState


# ---------------------------------------------------------------------------
# Agent registry
# ---------------------------------------------------------------------------

def test_agent_registry_contents():
    assert set(AGENT_REGISTRY) == {"reference", "ovs", "modified"}
    for name in AGENT_REGISTRY:
        agent = make_agent(name)
        assert agent.NAME == name
        assert agent.ports.count == 24
    with pytest.raises(KeyError):
        make_agent("unknown-switch")


# ---------------------------------------------------------------------------
# RecordingContext and events
# ---------------------------------------------------------------------------

def test_recording_context_records_in_order():
    ctx = RecordingContext()
    ctx.set_input_index(3)
    ctx.send_to_controller(BarrierReply(xid=1))
    ctx.output_packet(2, "flow{}", 60)
    ctx.crash("boom")
    ctx.probe_dropped()
    assert len(ctx) == 4
    kinds = [event.normalized()[0] for event in ctx.events]
    assert kinds == ["ctrl_msg", "dp_out", "crash", "probe_dropped"]
    assert all(event.normalized()[1] == 3 for event in ctx.events)


def test_context_sink_forwarding():
    forwarded = []
    ctx = RecordingContext(sink=forwarded.append)
    ctx.send_to_controller(BarrierReply())
    assert len(forwarded) == 1 and isinstance(forwarded[0], ControllerMessageEvent)


def test_event_normalization_shapes():
    crash = AgentCrashEvent(reason="why", input_index=1)
    assert crash.normalized() == ("crash", 1)  # reason wording is normalized away
    dropped = ProbeDroppedEvent(input_index=2)
    assert dropped.normalized() == ("probe_dropped", 2)
    out = DataplaneOutEvent(port=7, frame_summary="flow{}", length=10, input_index=0)
    assert out.normalized() == ("dp_out", 0, "7", "flow{}", 10)


# ---------------------------------------------------------------------------
# Message normalization
# ---------------------------------------------------------------------------

def test_normalize_error_and_echo():
    assert normalize_message(ErrorMsg(err_type=2, code=4)) == ("ERROR", "2", "4")
    assert normalize_message(EchoReply(data=b"abc")) == ("ECHO_REPLY", 3)


def test_normalize_packet_in_hides_buffer_id_values():
    first = normalize_message(PacketIn(buffer_id=1, in_port=3, reason=0, data=b"x" * 10))
    second = normalize_message(PacketIn(buffer_id=99, in_port=3, reason=0, data=b"x" * 10))
    assert first == second            # different buffer ids are not an inconsistency
    unbuffered = normalize_message(PacketIn(buffer_id=c.OFP_NO_BUFFER, in_port=3,
                                            reason=0, data=b"x" * 10))
    assert unbuffered != first


def test_normalize_xid_is_ignored():
    a = normalize_message(GetConfigReply(xid=1, flags=0, miss_send_len=128))
    b = normalize_message(GetConfigReply(xid=999, flags=0, miss_send_len=128))
    assert a == b


def test_normalize_various_reply_types():
    assert normalize_message(StatsReply(stats_type=3, summary="table(...)"))[0] == "STATS_REPLY"
    assert normalize_message(BarrierReply()) == ("BARRIER_REPLY",)
    assert normalize_message(QueueGetConfigReply(port=2, queues=[1, 2]))[2] == 2
    assert normalize_message(FlowRemoved(reason=2, priority=7)) == ("FLOW_REMOVED", "2", "7")
    assert normalize_message(Hello())[0] == "HELLO"


def test_output_trace_from_events_and_ordering_matters():
    events_a = [ControllerMessageEvent(BarrierReply(), input_index=0),
                DataplaneOutEvent(port=1, frame_summary="f", length=3, input_index=1)]
    events_b = list(reversed(events_a))
    assert OutputTrace.from_events(events_a) != OutputTrace.from_events(events_b)
    assert normalize_events(events_a)[0][0] == "ctrl_msg"


# ---------------------------------------------------------------------------
# TestDriver (symbolic program construction)
# ---------------------------------------------------------------------------

def _simple_inputs():
    def build_message(state: PathState):
        from repro.openflow.messages import EchoRequest

        return EchoRequest(xid=1, data=b"zz").pack()

    def build_probe(state: PathState):
        return 1, build_tcp_packet()

    return [ControlMessageInput("echo", build_message, symbolic=False),
            ProbeInput("probe", build_probe)]


def test_driver_program_runs_under_engine():
    driver = TestDriver(agent_factory=lambda: make_agent("reference"), inputs=_simple_inputs())
    result = Engine().explore(driver.program)
    assert result.path_count == 1
    trace = result.paths[0].result
    assert isinstance(trace, OutputTrace)
    kinds = [item[0] for item in trace.items]
    assert kinds == ["ctrl_msg", "ctrl_msg"]   # echo reply + packet_in for the probe


def test_driver_records_probe_drop_when_no_output():
    # An OVS flow that outputs back to the ingress port drops the probe.
    from repro.openflow.actions import ActionOutput
    from repro.openflow.match import Match
    from repro.openflow.messages import FlowMod

    def build_flow(state: PathState):
        match = Match(wildcards=c.OFPFW_ALL & ~c.OFPFW_IN_PORT, in_port=1)
        return FlowMod(match=match, command=c.OFPFC_ADD,
                       actions=[ActionOutput(port=1)]).pack()

    def build_probe(state: PathState):
        return 1, build_tcp_packet()

    driver = TestDriver(agent_factory=lambda: make_agent("ovs"),
                        inputs=[ControlMessageInput("flow", build_flow, symbolic=False),
                                ProbeInput("probe", build_probe)])
    result = Engine().explore(driver.program)
    assert result.path_count == 1
    assert ("probe_dropped", 1) in result.paths[0].result.items


def test_driver_rejects_unknown_input_kind():
    driver = TestDriver(agent_factory=lambda: make_agent("reference"), inputs=[object()])
    result = Engine().explore(driver.program)
    assert result.paths[0].error is not None and "HarnessError" in result.paths[0].error


def test_run_concrete_sequence_rejects_unknown_kind():
    with pytest.raises(HarnessError):
        run_concrete_sequence(make_agent("reference"), [("bogus", None)])


def test_table5_symbolic_probe_spec_explores_multiple_paths():
    spec = concretization_spec("symbolic_probe")
    from repro.core.explorer import explore_agent

    report = explore_agent("reference", spec)
    assert report.path_count >= 1
    assert report.test_key == "table5_symbolic_probe"


# ---------------------------------------------------------------------------
# Decision-free input builds are recorded once per exploration
# ---------------------------------------------------------------------------


def _spied_reference(received):
    """A reference agent that logs (and then scribbles over) every buffer."""

    agent = make_agent("reference")
    handle = agent.handle_control_buffer

    def spy(buf):
        # Symbolic bytes compare by term key (``==`` would build a condition).
        received.append([b if isinstance(b, int) else b.key() for b in buf])
        handle(buf)
        buf._bytes[:] = [0xEE] * len(buf)  # an agent may mutate its input

    agent.handle_control_buffer = spy
    return agent


def _counting_input(calls, body):
    def build(state: PathState):
        calls.append(state.path_id)
        return body(state)

    return ControlMessageInput("set_config", build)


def _symbolic_set_config(state: PathState):
    from repro.openflow.messages import SetConfig

    flags = state.new_symbol("sc.flags", 16)
    miss_send_len = state.new_symbol("sc.miss_send_len", 16)
    state.assume(miss_send_len <= 200)
    return SetConfig(xid=3, flags=flags, miss_send_len=miss_send_len).pack()


def test_recorded_build_replays_symbols_constraints_and_bytes():
    calls = []
    inputs = [_counting_input(calls, _symbolic_set_config),
              ProbeInput("probe", lambda state: (1, build_tcp_packet()))]
    recorded_bytes, fresh_bytes = [], []

    # One driver for the whole exploration: the build is recorded ...
    driver = TestDriver(agent_factory=lambda: _spied_reference(recorded_bytes),
                        inputs=inputs)
    recorded = Engine().explore(driver.program)
    built_once = len(calls)
    del calls[:]
    # ... against a new driver, and so a fresh build, on every path.
    fresh = Engine().explore(lambda state: TestDriver(
        agent_factory=lambda: _spied_reference(fresh_bytes),
        inputs=inputs).program(state))

    assert recorded.path_count == fresh.path_count > 1
    assert built_once == 1 and len(calls) == fresh.path_count
    for replayed, built in zip(recorded.paths, fresh.paths):
        assert list(replayed.symbols.items()) == list(built.symbols.items())
        assert replayed.condition.constraints() == built.condition.constraints()
        assert replayed.result == built.result
    # Every path saw the pristine message, although each agent overwrote it.
    assert recorded_bytes == fresh_bytes
    assert all(0xEE not in message for message in recorded_bytes)


def test_branching_builds_run_on_every_path():
    def branching(state: PathState):
        flags = state.new_symbol("sc.flags", 16)
        if flags == 0:
            flags = 0
        return _symbolic_set_config(state)

    calls = []
    driver = TestDriver(agent_factory=lambda: make_agent("reference"),
                        inputs=[_counting_input(calls, branching),
                                ProbeInput("probe", lambda state: (1, build_tcp_packet()))])
    result = Engine().explore(driver.program)
    assert result.path_count > 1
    assert len(calls) == result.path_count
