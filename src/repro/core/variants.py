"""Parameterized test-specification variants for Figure 4 and Table 5.

* :func:`flow_mod_sequence_spec` — Flow Mod sequences with 1, 2 or 3 symbolic
  messages, used to regenerate Figure 4 (coverage as a function of the number
  of symbolic messages).
* :func:`concretization_spec` — the five Table-5 variants that quantify the
  cost/benefit of concretizing the match, the actions, or the probe.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.tests_catalog import (
    PROBE_IN_PORT,
    PROBE_TP_SRC,
    TestSpec,
    _flow_mod_match,
    _tcp_probe,
)
from repro.harness.inputs import ControlMessageInput, ProbeInput, TestInput
from repro.openflow import constants as c
from repro.openflow.actions import ActionOutput, RawAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packetlib.builder import build_tcp_packet
from repro.symbex.state import PathState
from repro.wire.buffer import SymBuffer

__all__ = ["flow_mod_sequence_spec", "concretization_spec", "TABLE5_VARIANTS"]


def _sequence_flow_mod_builder(index: int):
    """A small symbolic Flow Mod used by the Figure-4 message sequences.

    Each message in the sequence uses its own symbolic variables; later
    messages interact with the flow-table state installed by earlier ones,
    which is exactly the cross-message interaction §3.2.2 describes.
    """

    def build(state: PathState) -> SymBuffer:
        prefix = "seq%d" % index
        command = state.new_symbol("%s.command" % prefix, 16)
        out_port = state.new_symbol("%s.out_port" % prefix, 16)
        state.assume(command <= 4)
        state.assume((out_port <= 4) | (out_port == c.OFPP_FLOOD)
                     | (out_port == c.OFPP_CONTROLLER))
        match = _flow_mod_match(
            state, "%s.match" % prefix, c.OFPFW_TP_DST, {"tp_dst": 16},
            concrete_overrides={
                "in_port": PROBE_IN_PORT, "dl_type": c.ETH_TYPE_IP,
                "nw_proto": c.IPPROTO_TCP, "dl_vlan": c.OFP_VLAN_NONE,
                "tp_src": PROBE_TP_SRC,
            },
        )
        message = FlowMod(
            xid=20 + index, match=match, command=command,
            priority=c.OFP_DEFAULT_PRIORITY + index, buffer_id=c.OFP_NO_BUFFER,
            out_port=c.OFPP_NONE, flags=0,
            actions=[ActionOutput(port=out_port, max_len=0)],
        )
        return message.pack()

    return build


def flow_mod_sequence_spec(message_count: int) -> TestSpec:
    """A Figure-4 sequence: *message_count* symbolic Flow Mods plus a TCP probe."""

    if not 1 <= message_count <= 3:
        raise ValueError("the paper evaluates 1..3 symbolic messages, got %d" % message_count)
    inputs: List[TestInput] = [
        ControlMessageInput("flow_mod_%d" % index, _sequence_flow_mod_builder(index))
        for index in range(message_count)
    ]
    inputs.append(ProbeInput("tcp_probe", _tcp_probe))
    return TestSpec(
        key="figure4_%dmsg" % message_count,
        title="Figure 4 (%d symbolic message%s)" % (message_count, "s" if message_count > 1 else ""),
        description="Flow Mod sequence with %d symbolic message(s) used to measure "
                    "coverage as a function of the number of symbolic messages." % message_count,
        inputs=inputs,
        message_count=message_count + 1,
    )


# ---------------------------------------------------------------------------
# Table 5: concretization variants
# ---------------------------------------------------------------------------

TABLE5_VARIANTS = (
    "fully_symbolic",
    "concrete_match",
    "concrete_action",
    "concrete_probe",
    "symbolic_probe",
)


def _table5_flow_mod_builder(symbolic_match: bool, symbolic_actions: bool):
    def build(state: PathState) -> SymBuffer:
        if symbolic_match:
            match = _flow_mod_match(
                state, "t5.match",
                c.OFPFW_IN_PORT | c.OFPFW_TP_DST,
                {"in_port": 16, "tp_dst": 16},
                concrete_overrides={
                    "dl_type": c.ETH_TYPE_IP, "nw_proto": c.IPPROTO_TCP,
                    "dl_vlan": c.OFP_VLAN_NONE, "tp_src": PROBE_TP_SRC,
                },
            )
        else:
            match = Match.wildcard_all()
        if symbolic_actions:
            action_type = state.new_symbol("t5.act.type", 16)
            action_arg = state.new_symbol("t5.act.arg", 16)
            out_port_a = state.new_symbol("t5.out_port_a", 16)
            out_port_b = state.new_symbol("t5.out_port_b", 16)
            state.assume((action_type <= 12) | (action_type == c.OFPAT_VENDOR))
            actions = [
                RawAction(action_type=action_type, length=8, arg16_a=action_arg, arg16_b=0),
                ActionOutput(port=out_port_a, max_len=64),
                ActionOutput(port=out_port_b, max_len=64),
            ]
        else:
            actions = [ActionOutput(port=2, max_len=64)]
        message = FlowMod(
            xid=30, match=match, command=c.OFPFC_ADD,
            priority=c.OFP_DEFAULT_PRIORITY, buffer_id=c.OFP_NO_BUFFER,
            out_port=c.OFPP_NONE, flags=0, actions=actions,
        )
        return message.pack()

    return build


def _symbolic_tcp_probe(state: PathState) -> Tuple[int, SymBuffer]:
    """A TCP probe whose transport ports are symbolic (Table 5 "Symbolic Probe")."""

    tp_src = state.new_symbol("probe.tp_src", 16)
    tp_dst = state.new_symbol("probe.tp_dst", 16)
    return PROBE_IN_PORT, build_tcp_packet(tp_src=tp_src, tp_dst=tp_dst)


def concretization_spec(variant: str) -> TestSpec:
    """One of the five Table-5 variants."""

    if variant not in TABLE5_VARIANTS:
        raise ValueError("unknown Table 5 variant %r; expected one of %s"
                         % (variant, ", ".join(TABLE5_VARIANTS)))

    if variant == "fully_symbolic":
        builder = _table5_flow_mod_builder(symbolic_match=True, symbolic_actions=True)
        probe: TestInput = ProbeInput("tcp_probe", _tcp_probe)
        description = "Symbolic Flow Mod with symbolic match and symbolic actions, TCP probe."
    elif variant == "concrete_match":
        builder = _table5_flow_mod_builder(symbolic_match=False, symbolic_actions=True)
        probe = ProbeInput("tcp_probe", _tcp_probe)
        description = "Symbolic Flow Mod whose match is concretized to a full wildcard."
    elif variant == "concrete_action":
        builder = _table5_flow_mod_builder(symbolic_match=True, symbolic_actions=False)
        probe = ProbeInput("tcp_probe", _tcp_probe)
        description = "Symbolic Flow Mod with a single concrete output action."
    elif variant == "concrete_probe":
        builder = _table5_flow_mod_builder(symbolic_match=True, symbolic_actions=False)
        probe = ProbeInput("tcp_probe", _tcp_probe)
        description = "Partially symbolic Flow Mod followed by a concrete probe."
    else:  # symbolic_probe
        builder = _table5_flow_mod_builder(symbolic_match=True, symbolic_actions=False)
        probe = ProbeInput("symbolic_tcp_probe", _symbolic_tcp_probe, symbolic=True)
        description = "Partially symbolic Flow Mod followed by a partially symbolic probe."

    return TestSpec(
        key="table5_%s" % variant,
        title="Table 5 (%s)" % variant.replace("_", " "),
        description=description,
        inputs=[ControlMessageInput("flow_mod", builder), probe],
        message_count=2,
    )
