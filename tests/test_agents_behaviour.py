"""Concrete behavioural tests of the three agents.

These tests document (and pin) exactly the behaviours the paper's evaluation
reports in §5.1.2 — the reference switch's crashes, silent drops and missing
validation, Open vSwitch's strict validation and explicit errors — and the
seven injected modifications of §5.1.1.  They run the agents concretely (no
symbolic execution), which also makes them the ground truth the SOFT pipeline
is later expected to rediscover automatically.
"""

import pytest

from repro.agents import make_agent
from repro.agents.modified.mutations import MUTATIONS, detectable_mutations, undetectable_mutations
from repro.harness.driver import run_concrete_sequence
from repro.openflow import constants as c
from repro.openflow.actions import (
    ActionOutput,
    ActionSetNwTos,
    ActionSetVlanVid,
    RawAction,
    pack_actions,
    unpack_actions,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    EchoRequest,
    FlowMod,
    Hello,
    PacketOut,
    QueueGetConfigRequest,
    SetConfig,
    StatsRequest,
)
from repro.packetlib.builder import build_tcp_packet


def run(agent_name, inputs):
    return run_concrete_sequence(make_agent(agent_name), inputs)


def trace_kinds(result):
    return [item[0] for item in result.trace.items]


def error_codes(result):
    codes = []
    for item in result.trace.items:
        if item[0] == "ctrl_msg" and item[2][0] == "ERROR":
            codes.append((item[2][1], item[2][2]))
    return codes


def has_error(result, err_type, code):
    return (str(err_type), str(code)) in error_codes(result)


def _packet_out(actions, buffer_id=c.OFP_NO_BUFFER, data=None):
    data = data if data is not None else build_tcp_packet().to_bytes()
    message = PacketOut(xid=1, buffer_id=buffer_id, in_port=c.OFPP_NONE,
                        actions=actions, data=data)
    return [("control", message.pack())]


def _flow_mod(actions, match=None, command=c.OFPFC_ADD, flags=0, buffer_id=c.OFP_NO_BUFFER,
              idle_timeout=0, hard_timeout=0, probe=True):
    match = match if match is not None else Match.wildcard_all()
    message = FlowMod(xid=2, match=match, command=command, flags=flags,
                      idle_timeout=idle_timeout, hard_timeout=hard_timeout,
                      buffer_id=buffer_id, out_port=c.OFPP_NONE, actions=actions)
    inputs = [("control", message.pack())]
    if probe:
        inputs.append(("probe", (1, build_tcp_packet(tp_src=1234, tp_dst=80))))
    return inputs


# ---------------------------------------------------------------------------
# Shared basic behaviour (all agents)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_echo_is_answered(agent):
    result = run(agent, [("control", EchoRequest(xid=5, data=b"hi").pack())])
    assert ("ECHO_REPLY", 2) in [item[2] for item in result.trace.items]


@pytest.mark.parametrize("agent", ["reference", "ovs"])
def test_exact_flow_forwards_probe(agent):
    match = Match.exact_tcp(in_port=1, dl_src=0x00163E000001, dl_dst=0x00163E000002,
                            nw_src=0x0A000001, nw_dst=0x0A000002, tp_src=1234, tp_dst=80)
    result = run(agent, _flow_mod([ActionOutput(port=2, max_len=0)], match=match))
    assert "dp_out" in trace_kinds(result)


@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_table_miss_generates_packet_in(agent):
    result = run(agent, [("probe", (1, build_tcp_packet()))])
    assert any(item[0] == "ctrl_msg" and item[2][0] == "PACKET_IN" for item in result.trace.items)


# ---------------------------------------------------------------------------
# §5.1.2: Packet dropped when action is invalid (VLAN / TOS validation)
# ---------------------------------------------------------------------------

def test_ovs_silently_drops_packet_out_with_oversized_vlan():
    inputs = _packet_out([ActionSetVlanVid(vlan_vid=0x1FFF), ActionOutput(port=2)])
    result = run("ovs", inputs)
    assert result.trace.is_empty            # silently ignored, no error, no output


def test_reference_masks_oversized_vlan_and_forwards():
    inputs = _packet_out([ActionSetVlanVid(vlan_vid=0x1FFF), ActionOutput(port=2)])
    result = run("reference", inputs)
    # The reference switch crashes on set_vlan_vid in Packet Out per §5.1.2;
    # use a Flow Mod to observe the masking behaviour instead.
    flow_inputs = _flow_mod([ActionSetVlanVid(vlan_vid=0x1FFF), ActionOutput(port=2)])
    flow_result = run("reference", flow_inputs)
    assert "crash" in trace_kinds(result)
    dp_events = [item for item in flow_result.trace.items if item[0] == "dp_out"]
    assert dp_events, "reference must still forward the probe after masking the VLAN id"


def test_tos_validation_differs_between_agents():
    actions = [ActionSetNwTos(nw_tos=0x03), ActionOutput(port=2)]
    ovs_result = run("ovs", _flow_mod(actions))
    ref_result = run("reference", _flow_mod(actions))
    assert "dp_out" not in trace_kinds(ovs_result)      # OVS refuses to install
    assert "dp_out" in trace_kinds(ref_result)           # reference masks and forwards


# ---------------------------------------------------------------------------
# §5.1.2: Forwarding a packet to an invalid port
# ---------------------------------------------------------------------------

def test_in_port_equals_out_port_reference_errors_ovs_drops():
    match = Match(wildcards=c.OFPFW_ALL & ~c.OFPFW_IN_PORT, in_port=1)
    actions = [ActionOutput(port=1, max_len=0)]
    ref_result = run("reference", _flow_mod(actions, match=match))
    ovs_result = run("ovs", _flow_mod(actions, match=match))
    assert has_error(ref_result, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
    assert not error_codes(ovs_result)
    assert "probe_dropped" in trace_kinds(ovs_result)


def test_output_port_above_max_ovs_errors_reference_accepts():
    actions = [ActionOutput(port=2000, max_len=0)]
    ref_result = run("reference", _packet_out(actions))
    ovs_result = run("ovs", _packet_out(actions))
    assert has_error(ovs_result, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
    assert not error_codes(ref_result)
    assert result_has_no_output(ref_result)


def result_has_no_output(result):
    return not any(kind in ("dp_out",) for kind in trace_kinds(result))


# ---------------------------------------------------------------------------
# §5.1.2: Lack of error messages (unknown buffer ids)
# ---------------------------------------------------------------------------

def test_unknown_buffer_id_packet_out():
    actions = [ActionOutput(port=2, max_len=0)]
    ref_result = run("reference", _packet_out(actions, buffer_id=12345, data=b""))
    ovs_result = run("ovs", _packet_out(actions, buffer_id=12345, data=b""))
    assert ref_result.trace.is_empty        # silent drop, error never propagated
    assert has_error(ovs_result, c.OFPET_BAD_REQUEST, c.OFPBRC_BUFFER_UNKNOWN)


def test_unknown_buffer_id_flow_mod_ovs_errors_but_installs():
    actions = [ActionOutput(port=2, max_len=0)]
    ovs_result = run("ovs", _flow_mod(actions, buffer_id=777))
    ref_result = run("reference", _flow_mod(actions, buffer_id=777))
    assert has_error(ovs_result, c.OFPET_BAD_REQUEST, c.OFPBRC_BUFFER_UNKNOWN)
    assert "dp_out" in trace_kinds(ovs_result)           # flow installed anyway
    assert not error_codes(ref_result)                    # reference stays silent
    assert "dp_out" in trace_kinds(ref_result)


# ---------------------------------------------------------------------------
# §5.1.2: OpenFlow agent terminates with an error (the three crashes)
# ---------------------------------------------------------------------------

def test_reference_crashes_on_packet_out_to_controller():
    result = run("reference", _packet_out([ActionOutput(port=c.OFPP_CONTROLLER)]))
    assert "crash" in trace_kinds(result)
    ovs_result = run("ovs", _packet_out([ActionOutput(port=c.OFPP_CONTROLLER)]))
    assert "crash" not in trace_kinds(ovs_result)
    assert any(item[0] == "ctrl_msg" and item[2][0] == "PACKET_IN"
               for item in ovs_result.trace.items)


def test_reference_crashes_on_queue_config_for_port_zero():
    inputs = [("control", QueueGetConfigRequest(xid=3, port=0).pack())]
    ref_result = run("reference", inputs)
    ovs_result = run("ovs", inputs)
    assert "crash" in trace_kinds(ref_result)
    assert has_error(ovs_result, c.OFPET_QUEUE_OP_FAILED, c.OFPQOFC_BAD_PORT)


def test_queue_config_for_valid_port_replies_on_both():
    inputs = [("control", QueueGetConfigRequest(xid=3, port=2).pack())]
    for agent in ("reference", "ovs"):
        result = run(agent, inputs)
        assert any(item[2][0] == "QUEUE_GET_CONFIG_REPLY" for item in result.trace.items
                   if item[0] == "ctrl_msg")


# ---------------------------------------------------------------------------
# §5.1.2: Statistics requests silently ignored
# ---------------------------------------------------------------------------

def test_unknown_stats_request_silent_vs_error():
    message = StatsRequest(xid=4, stats_type=9)
    ref_result = run("reference", [("control", message.pack())])
    ovs_result = run("ovs", [("control", message.pack())])
    assert ref_result.trace.is_empty
    assert has_error(ovs_result, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_STAT)


def test_desc_stats_answered_with_different_descriptions():
    message = StatsRequest(xid=4, stats_type=c.OFPST_DESC)
    ref_result = run("reference", [("control", message.pack())])
    ovs_result = run("ovs", [("control", message.pack())])
    assert ref_result.trace.items != ovs_result.trace.items
    assert all(items[2][0] == "STATS_REPLY" for items in ref_result.trace.items)


# ---------------------------------------------------------------------------
# §5.1.2: Missing features (emergency flows, OFPP_NORMAL)
# ---------------------------------------------------------------------------

def test_emergency_flow_supported_only_by_reference():
    actions = [ActionOutput(port=2, max_len=0)]
    ref_result = run("reference", _flow_mod(actions, flags=c.OFPFF_EMERG, probe=False))
    ovs_result = run("ovs", _flow_mod(actions, flags=c.OFPFF_EMERG, probe=False))
    assert not error_codes(ref_result)
    assert has_error(ovs_result, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_UNSUPPORTED)


def test_emergency_flow_with_timeouts_rejected_by_reference():
    actions = [ActionOutput(port=2, max_len=0)]
    result = run("reference", _flow_mod(actions, flags=c.OFPFF_EMERG, idle_timeout=5, probe=False))
    assert has_error(result, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_BAD_EMERG_TIMEOUT)


def test_ofpp_normal_supported_only_by_ovs():
    actions = [ActionOutput(port=c.OFPP_NORMAL, max_len=0)]
    ref_result = run("reference", _packet_out(actions))
    ovs_result = run("ovs", _packet_out(actions))
    assert has_error(ref_result, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
    assert any(item[0] == "dp_out" and item[2] == "NORMAL" for item in ovs_result.trace.items)


# ---------------------------------------------------------------------------
# §5.1.1: the Modified Switch mutations
# ---------------------------------------------------------------------------

def test_mutation_catalogue_has_seven_entries_five_detectable():
    assert len(MUTATIONS) == 7
    assert len(detectable_mutations()) == 5
    assert len(undetectable_mutations()) == 2


def test_modified_rejects_ports_above_injected_limit():
    actions = [ActionOutput(port=20, max_len=0)]
    reference = run("reference", _packet_out(actions))
    modified = run("modified", _packet_out(actions))
    assert "dp_out" in trace_kinds(reference)
    assert has_error(modified, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)


def test_modified_desc_stats_differ_from_reference():
    message = StatsRequest(xid=4, stats_type=c.OFPST_DESC)
    reference = run("reference", [("control", message.pack())])
    modified = run("modified", [("control", message.pack())])
    assert reference.trace.items != modified.trace.items


def test_modified_clamps_miss_send_len():
    inputs = [
        ("control", SetConfig(xid=5, flags=0, miss_send_len=120).pack()),
        ("probe", (1, build_tcp_packet(payload=b"\x00" * 100))),
    ]
    reference = run("reference", inputs)
    modified = run("modified", inputs)
    ref_packet_in = [item[2] for item in reference.trace.items if item[2][0] == "PACKET_IN"]
    mod_packet_in = [item[2] for item in modified.trace.items if item[2][0] == "PACKET_IN"]
    assert ref_packet_in[0][4] == 120
    assert mod_packet_in[0][4] == 64


def test_modified_flood_drops_packets():
    actions = [ActionOutput(port=c.OFPP_FLOOD, max_len=0)]
    reference = run("reference", _packet_out(actions))
    modified = run("modified", _packet_out(actions))
    assert any(item[0] == "dp_out" and item[2] == "FLOOD" for item in reference.trace.items)
    assert not any(item[0] == "dp_out" for item in modified.trace.items)


def test_modified_modify_of_missing_flow_is_error():
    actions = [ActionOutput(port=2, max_len=0)]
    reference = run("reference", _flow_mod(actions, command=c.OFPFC_MODIFY))
    modified = run("modified", _flow_mod(actions, command=c.OFPFC_MODIFY))
    assert not error_codes(reference)          # MODIFY of nothing behaves like ADD
    assert has_error(modified, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_BAD_COMMAND)


def test_modified_hello_mutation_is_invisible_to_soft_sequences():
    # SOFT never sends a HELLO after the handshake, so this difference is
    # structurally invisible to its input sequences (paper §5.1.1).
    reference = run("reference", [("control", EchoRequest(xid=6).pack())])
    modified = run("modified", [("control", EchoRequest(xid=6).pack())])
    assert reference.trace.items == modified.trace.items
    # A HELLO carrying version-negotiation elements (which SOFT never sends)
    # would reveal the difference:
    extended_hello = Hello(xid=7).pack()
    extended_hello.write_bytes(b"\x00\x01\x00\x08\x00\x00\x00\x02")
    raw = bytearray(extended_hello.to_bytes())
    raw[2:4] = len(raw).to_bytes(2, "big")
    from repro.wire.buffer import SymBuffer
    ref_hello = run("reference", [("control", SymBuffer(bytes(raw)))])
    mod_hello = run("modified", [("control", SymBuffer(bytes(raw)))])
    assert ref_hello.trace.items != mod_hello.trace.items


def test_crashed_agent_ignores_subsequent_inputs():
    inputs = _packet_out([ActionOutput(port=c.OFPP_CONTROLLER)]) + \
        [("control", EchoRequest(xid=9, data=b"x").pack())]
    result = run("reference", inputs)
    assert trace_kinds(result) == ["crash"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "RawAction.arg16_a holds bytes 4-5 of the action, but SET_NW_TOS and "
    "SET_VLAN_PCP carry their value in byte 4 alone; the agents' RawAction "
    "branches test all 16 bits"))
def test_raw_set_nw_tos_validates_like_its_concrete_parse():
    # A symbolic action type reaches the agent as a RawAction; the same bytes
    # with a concrete type parse to ActionSetNwTos(nw_tos=0x00).
    raw = RawAction(c.OFPAT_SET_NW_TOS, 8, 0x00FA, 0)
    packed = pack_actions([raw])
    (parsed,) = unpack_actions(packed, 0, len(packed))
    assert parsed == ActionSetNwTos(0x00)
    agent = make_agent("ovs")
    symbolic = agent._validate_actions([raw], 1, for_flow_mod=True)
    concrete = agent._validate_actions([parsed], 1, for_flow_mod=True)
    assert symbolic == concrete
