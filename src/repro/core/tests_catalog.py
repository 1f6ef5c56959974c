"""The catalogue of test specifications (Table 1 of the paper).

Each :class:`TestSpec` describes one input sequence: which OpenFlow control
messages are injected, which of their fields are symbolic, and which concrete
probe packets follow.  The structure of every message (type, length, number
and size of actions) is always concrete — the key scalability decision of
§3.2.1 — while selected field values are free symbolic variables.

Because a pure-Python symbolic executor explores paths much more slowly than
Cloud9 explores native code, every spec exists in two *scales*:

* ``small`` (default) — the same message shapes with slightly fewer symbolic
  fields, chosen so the full benchmark suite completes on a laptop in minutes.
* ``paper`` — the field selection closest to the paper's description; expect
  multi-minute runs for the Flow Mod family.

Select the scale with the ``SOFT_SCALE`` environment variable or by passing
``scale=`` to :func:`catalog` / :func:`get_test`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.harness.inputs import ControlMessageInput, ProbeInput, TestInput
from repro.openflow import constants as c
from repro.openflow.actions import ActionOutput, RawAction
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierRequest,
    EchoRequest,
    FeaturesRequest,
    FlowMod,
    GetConfigRequest,
    PacketOut,
    SetConfig,
    StatsRequest,
)
from repro.packetlib.builder import build_ethernet_frame, build_tcp_packet
from repro.symbex.state import PathState
from repro.wire.buffer import SymBuffer

__all__ = ["TestSpec", "catalog", "get_test", "TABLE1_TESTS", "current_scale",
           "VALID_SCALES"]

#: The scale profiles a spec can be built at.
VALID_SCALES = ("small", "paper")

#: Probe constants shared by every spec so traces are comparable.
PROBE_IN_PORT = 1
PROBE_TP_DST = 80
PROBE_TP_SRC = 1234


def current_scale() -> str:
    """The active scale profile (``small`` unless ``SOFT_SCALE=paper``).

    Whitespace and case are normalized; any other mismatch (``SOFT_SCALE=large``)
    falls back to ``small`` with a :class:`RuntimeWarning` naming the valid
    scales, so a typo cannot silently benchmark the wrong profile.
    """

    raw = os.environ.get("SOFT_SCALE")
    if raw is None:
        return "small"
    scale = raw.strip().lower()
    if scale in VALID_SCALES:
        return scale
    warnings.warn(
        "SOFT_SCALE=%r is not a valid scale (valid: %s); falling back to 'small'"
        % (raw, ", ".join(VALID_SCALES)),
        RuntimeWarning, stacklevel=2)
    return "small"


@dataclass
class TestSpec:
    """One row of Table 1: a named input sequence."""

    key: str
    title: str
    description: str
    inputs: List[TestInput]
    #: Number of messages reported in Table 2 (symbolic messages plus probes).
    message_count: int
    scale: str = "small"


# ---------------------------------------------------------------------------
# Builder helpers
# ---------------------------------------------------------------------------


def _tcp_probe(state: PathState) -> Tuple[int, SymBuffer]:
    # The 100-byte payload makes the frame longer than typical miss_send_len
    # values, so PACKET_IN truncation behaviour becomes observable.
    return PROBE_IN_PORT, build_tcp_packet(tp_src=PROBE_TP_SRC, tp_dst=PROBE_TP_DST,
                                           payload=b"\x00" * 100)


def _eth_probe(state: PathState) -> Tuple[int, SymBuffer]:
    return PROBE_IN_PORT, build_ethernet_frame()


def _symbolic_wildcards(state: PathState, name: str, symbolic_bits: int) -> object:
    """A symbolic wildcards word whose non-interesting bits are forced to 'wildcarded'.

    The IP prefix sub-fields are always forced to "fully wildcarded" so that
    prefix-length arithmetic does not blow up the path count; the paper's
    Table 5 makes the same kind of concretization trade-off explicit.
    """

    wildcards = state.new_symbol(name, 32)
    forced_mask = c.OFPFW_ALL & ~symbolic_bits
    state.assume((wildcards & forced_mask) == (c.OFPFW_ALL & forced_mask))
    # Bits above OFPFW_ALL do not exist; force them to zero.
    state.assume((wildcards & ~c.OFPFW_ALL & 0xFFFFFFFF) == 0)
    return wildcards


# ---------------------------------------------------------------------------
# Table 1 test builders
# ---------------------------------------------------------------------------


def _build_packet_out(state: PathState, scale: str) -> SymBuffer:
    buffer_id = state.new_symbol("po.buffer_id", 32)
    action_type = state.new_symbol("po.act.type", 16)
    action_arg = state.new_symbol("po.act.arg", 16)
    out_port = state.new_symbol("po.out_port", 16)
    if scale == "small":
        # Keep the symbolic action inside the defined action-type space plus
        # one representative undefined value; the paper's shapes allow any
        # 16-bit value, which multiplies runtime without changing behaviourally
        # distinct outcomes.
        state.assume((action_type <= 12) | (action_type == c.OFPAT_VENDOR))
    message = PacketOut(
        xid=1,
        buffer_id=buffer_id,
        in_port=c.OFPP_NONE,
        actions=[
            RawAction(action_type=action_type, length=8, arg16_a=action_arg, arg16_b=0),
            ActionOutput(port=out_port, max_len=128),
        ],
        data=build_tcp_packet(tp_src=PROBE_TP_SRC, tp_dst=PROBE_TP_DST).to_bytes(),
    )
    return message.pack()


def _build_stats_request(state: PathState) -> SymBuffer:
    stats_type = state.new_symbol("st.type", 16)
    body_port = state.new_symbol("st.port", 16)
    # The body is laid out so every statistics type finds a syntactically valid
    # request: a wildcard-all flow-stats body whose first 16 bits double as the
    # port number of port/queue statistics requests.
    body = SymBuffer()
    body.write_u16(body_port)
    body.write_u16(c.OFPFW_ALL & 0xFFFF)       # low half of the wildcards word
    match_rest = Match.wildcard_all().pack()
    body.write_bytes(match_rest[4:])            # remaining 36 bytes of the match
    body.write_u8(0xFF)                         # table_id: all tables
    body.pad(1)
    body.write_u16(c.OFPP_NONE)                 # out_port filter: none
    message = StatsRequest(xid=2, stats_type=stats_type, flags=0, stats_body=body)
    return message.pack()


def _build_set_config(state: PathState) -> SymBuffer:
    flags = state.new_symbol("sc.flags", 16)
    miss_send_len = state.new_symbol("sc.miss_send_len", 16)
    return SetConfig(xid=3, flags=flags, miss_send_len=miss_send_len).pack()


def _flow_mod_match(state: PathState, prefix: str, symbolic_bits: int,
                    symbolic_fields: Dict[str, int],
                    concrete_overrides: Optional[Dict[str, int]] = None) -> Match:
    """A match whose wildcards and selected fields are symbolic."""

    wildcards = _symbolic_wildcards(state, "%s.wildcards" % prefix, symbolic_bits)
    fields: Dict[str, object] = {"wildcards": wildcards}
    for name, width in symbolic_fields.items():
        fields[name] = state.new_symbol("%s.%s" % (prefix, name), width)
    if concrete_overrides:
        for name, value in concrete_overrides.items():
            fields.setdefault(name, value)
    return Match(**fields)


def _build_flow_mod(state: PathState, scale: str) -> SymBuffer:
    command = state.new_symbol("fm.command", 16)
    flags = state.new_symbol("fm.flags", 16)
    buffer_id = state.new_symbol("fm.buffer_id", 32)
    out_port = state.new_symbol("fm.act.out_port", 16)
    if scale == "small":
        state.assume((flags & ~c.OFPFF_EMERG & 0xFFFF) == 0)
        state.assume(command <= 6)
        symbolic_bits = c.OFPFW_IN_PORT | c.OFPFW_TP_DST
        symbolic_fields = {"in_port": 16, "tp_dst": 16}
        actions: List[object] = [ActionOutput(port=out_port, max_len=128)]
    else:
        flags_mask = c.OFPFF_SEND_FLOW_REM | c.OFPFF_CHECK_OVERLAP | c.OFPFF_EMERG
        state.assume((flags & ~flags_mask & 0xFFFF) == 0)
        symbolic_bits = c.OFPFW_IN_PORT | c.OFPFW_TP_DST | c.OFPFW_NW_TOS
        symbolic_fields = {"in_port": 16, "tp_dst": 16, "nw_tos": 8}
        action_type = state.new_symbol("fm.act.type", 16)
        action_arg = state.new_symbol("fm.act.arg", 16)
        actions = [
            RawAction(action_type=action_type, length=8, arg16_a=action_arg, arg16_b=0),
            ActionOutput(port=out_port, max_len=128),
        ]
    match = _flow_mod_match(
        state, "fm.match", symbolic_bits, symbolic_fields,
        concrete_overrides={
            "dl_type": c.ETH_TYPE_IP, "nw_proto": c.IPPROTO_TCP,
            "dl_vlan": c.OFP_VLAN_NONE, "tp_src": PROBE_TP_SRC,
        },
    )
    idle_timeout = state.new_symbol("fm.idle_timeout", 16)
    if scale == "small":
        state.assume(idle_timeout <= 1)
    message = FlowMod(
        xid=4,
        match=match,
        command=command,
        idle_timeout=idle_timeout,
        hard_timeout=0,
        priority=c.OFP_DEFAULT_PRIORITY,
        buffer_id=buffer_id,
        out_port=c.OFPP_NONE,
        flags=flags,
        actions=actions,
    )
    return message.pack()


def _build_eth_flow_mod(state: PathState, scale: str) -> SymBuffer:
    out_port = state.new_symbol("efm.act.out_port", 16)
    action_type = state.new_symbol("efm.act.type", 16)
    action_arg = state.new_symbol("efm.act.arg", 16)
    if scale == "small":
        state.assume((action_type <= 3) | (action_type == c.OFPAT_SET_NW_TOS)
                     | (action_type == 12))
        symbolic_bits = c.OFPFW_DL_DST
        symbolic_fields = {"dl_dst": 48}
    else:
        symbolic_bits = c.OFPFW_DL_SRC | c.OFPFW_DL_DST | c.OFPFW_DL_VLAN
        symbolic_fields = {"dl_src": 48, "dl_dst": 48, "dl_vlan": 16}
    match = _flow_mod_match(
        state, "efm.match", symbolic_bits, symbolic_fields,
        concrete_overrides={"in_port": PROBE_IN_PORT},
    )
    message = FlowMod(
        xid=5,
        match=match,
        command=c.OFPFC_ADD,
        idle_timeout=0,
        hard_timeout=0,
        priority=c.OFP_DEFAULT_PRIORITY,
        buffer_id=c.OFP_NO_BUFFER,
        out_port=c.OFPP_NONE,
        flags=0,
        actions=[
            RawAction(action_type=action_type, length=8, arg16_a=action_arg, arg16_b=0),
            ActionOutput(port=out_port, max_len=128),
        ],
    )
    return message.pack()


def _concrete_exact_flow_mod() -> SymBuffer:
    """The concrete first message of the CS FlowMods test."""

    match = Match.exact_tcp(
        in_port=PROBE_IN_PORT,
        dl_src=0x00163E000001, dl_dst=0x00163E000002,
        nw_src=0x0A000001, nw_dst=0x0A000002,
        tp_src=PROBE_TP_SRC, tp_dst=PROBE_TP_DST,
    )
    message = FlowMod(
        xid=6, match=match, command=c.OFPFC_ADD, priority=0x8000,
        buffer_id=c.OFP_NO_BUFFER, out_port=c.OFPP_NONE, flags=0,
        actions=[ActionOutput(port=2, max_len=0)],
    )
    return message.pack()


def _build_cs_first(state: PathState) -> SymBuffer:
    return _concrete_exact_flow_mod()


def _build_cs_second(state: PathState, scale: str) -> SymBuffer:
    command = state.new_symbol("cs.command", 16)
    out_port_filter = state.new_symbol("cs.out_port", 16)
    flags = state.new_symbol("cs.flags", 16)
    action_port = state.new_symbol("cs.act.port", 16)
    buffer_id = state.new_symbol("cs.buffer_id", 32)
    state.assume(command <= 6)
    flags_mask = c.OFPFF_SEND_FLOW_REM | c.OFPFF_EMERG
    state.assume((flags & ~flags_mask & 0xFFFF) == 0)
    if scale == "small":
        state.assume((out_port_filter == c.OFPP_NONE) | (out_port_filter <= 4))
    match = Match.exact_tcp(
        in_port=PROBE_IN_PORT,
        dl_src=0x00163E000001, dl_dst=0x00163E000002,
        nw_src=0x0A000001, nw_dst=0x0A000002,
        tp_src=PROBE_TP_SRC, tp_dst=PROBE_TP_DST,
    )
    message = FlowMod(
        xid=7, match=match, command=command, priority=0x8000,
        buffer_id=buffer_id, out_port=out_port_filter, flags=flags,
        actions=[ActionOutput(port=action_port, max_len=0)],
    )
    return message.pack()


def _build_concrete_sequence() -> List[TestInput]:
    def features(state: PathState) -> SymBuffer:
        return FeaturesRequest(xid=10).pack()

    def get_config(state: PathState) -> SymBuffer:
        return GetConfigRequest(xid=11).pack()

    def barrier(state: PathState) -> SymBuffer:
        return BarrierRequest(xid=12).pack()

    def echo(state: PathState) -> SymBuffer:
        return EchoRequest(xid=13).pack()

    return [
        ControlMessageInput("features_request", features, symbolic=False),
        ControlMessageInput("get_config_request", get_config, symbolic=False),
        ControlMessageInput("barrier_request", barrier, symbolic=False),
        ControlMessageInput("echo_request", echo, symbolic=False),
    ]


def _build_short_symb(state: PathState) -> SymBuffer:
    buf = SymBuffer()
    buf.write_u8(c.OFP_VERSION)
    buf.write_u8(state.new_symbol("ss.type", 8))
    buf.write_u16(state.new_symbol("ss.length", 16))
    buf.write_u32(state.new_symbol("ss.xid", 32))
    buf.write_u8(state.new_symbol("ss.body0", 8))
    buf.write_u8(state.new_symbol("ss.body1", 8))
    return buf


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def _table1_specs(scale: str) -> Dict[str, TestSpec]:
    # Scale-dependent builders are bound to *scale* here, so a spec built
    # for one scale never reads SOFT_SCALE when it runs; ``partial`` of a
    # module-level function keeps the spec picklable for process workers.
    return {
        "packet_out": TestSpec(
            key="packet_out",
            title="Packet Out",
            description="A single Packet Out message containing a symbolic action "
                        "and a symbolic output action.",
            inputs=[ControlMessageInput("packet_out",
                                        partial(_build_packet_out, scale=scale))],
            message_count=1,
            scale=scale,
        ),
        "stats_request": TestSpec(
            key="stats_request",
            title="Stats Request",
            description="A single symbolic Stats Request covering all possible "
                        "statistics requests.",
            inputs=[ControlMessageInput("stats_request", _build_stats_request)],
            message_count=1,
            scale=scale,
        ),
        "set_config": TestSpec(
            key="set_config",
            title="Set Config",
            description="A symbolic Set Config message followed by a probing TCP packet.",
            inputs=[
                ControlMessageInput("set_config", _build_set_config),
                ProbeInput("tcp_probe", _tcp_probe),
            ],
            message_count=2,
            scale=scale,
        ),
        "flow_mod": TestSpec(
            key="flow_mod",
            title="FlowMod",
            description="A symbolic Flow Mod with a symbolic action and a symbolic "
                        "output action followed by a probing TCP packet.",
            inputs=[
                ControlMessageInput("flow_mod", partial(_build_flow_mod, scale=scale)),
                ProbeInput("tcp_probe", _tcp_probe),
            ],
            message_count=2,
            scale=scale,
        ),
        "eth_flow_mod": TestSpec(
            key="eth_flow_mod",
            title="Eth FlowMod",
            description="A symbolic Flow Mod whose non-Ethernet fields are concretized, "
                        "followed by a probing Ethernet packet.",
            inputs=[
                ControlMessageInput("eth_flow_mod", partial(_build_eth_flow_mod, scale=scale)),
                ProbeInput("eth_probe", _eth_probe),
            ],
            message_count=2,
            scale=scale,
        ),
        "cs_flow_mods": TestSpec(
            key="cs_flow_mods",
            title="CS FlowMods",
            description="Two Flow Mods: the first concrete, the second symbolic.",
            inputs=[
                ControlMessageInput("concrete_flow_mod", _build_cs_first, symbolic=False),
                ControlMessageInput("symbolic_flow_mod",
                                    partial(_build_cs_second, scale=scale)),
            ],
            message_count=2,
            scale=scale,
        ),
        "concrete": TestSpec(
            key="concrete",
            title="Concrete",
            description="Four concrete 8-byte messages (the messages without variable fields).",
            inputs=_build_concrete_sequence(),
            message_count=4,
            scale=scale,
        ),
        "short_symb": TestSpec(
            key="short_symb",
            title="Short Symb",
            description="A 10-byte symbolic message; only the OpenFlow version field is concrete.",
            inputs=[ControlMessageInput("short_symbolic", _build_short_symb)],
            message_count=1,
            scale=scale,
        ),
    }


TABLE1_TESTS = ("packet_out", "stats_request", "set_config", "flow_mod",
                "eth_flow_mod", "cs_flow_mods", "concrete", "short_symb")


def catalog(scale: Optional[str] = None) -> Dict[str, TestSpec]:
    """All Table-1 test specifications, keyed by their short name."""

    return _table1_specs(scale or current_scale())


def get_test(key: str, scale: Optional[str] = None) -> TestSpec:
    """Look up one test specification by key."""

    specs = catalog(scale)
    try:
        return specs[key]
    except KeyError:
        raise KeyError("unknown test %r; known tests: %s" % (key, ", ".join(TABLE1_TESTS)))
