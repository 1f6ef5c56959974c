"""Common skeleton of an OpenFlow 1.0 agent.

:class:`OpenFlowAgent` implements the machinery every agent shares — header
parsing, type dispatch, the trivial request/reply handlers, flow-table lookup
on the data-plane path — and declares overridable handlers for the messages
whose semantics differ between implementations (``Packet Out``, ``Flow Mod``,
``Stats Request``, ``Set Config``, ``Queue Get Config``) plus the action
validation/application hooks.  The per-vendor behaviour, including every
inconsistency the paper reports, lives in the subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.agents.common.buffers import PacketBufferPool
from repro.agents.common.context import AgentContext
from repro.agents.common.flowtable import FlowEntry, FlowTable
from repro.agents.common.ports import SwitchPortSet
from repro.errors import AgentCrash, MessageParseError
from repro.openflow import constants as c
from repro.openflow.actions import Action, unpack_actions
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    EchoReply,
    ErrorMsg,
    FeaturesReply,
    GetConfigReply,
    OpenFlowMessage,
    PacketIn,
)
from repro.openflow.parser import parse_header
from repro.packetlib.flowkey import FlowKey, extract_flow_key
from repro.testing.faults import fault_point
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, field_int

__all__ = ["AgentConfig", "OpenFlowAgent"]


@dataclass
class AgentConfig:
    """Static identity and tunables of an emulated switch."""

    datapath_id: int = 0x0000_0000_0000_00FE
    n_buffers: int = 256
    n_tables: int = 1
    capabilities: int = c.OFPC_FLOW_STATS | c.OFPC_TABLE_STATS | c.OFPC_PORT_STATS
    supported_actions: int = 0x0FFF
    port_count: int = 24
    description: str = "repro software switch"


class OpenFlowAgent:
    """Base class of the agents under test."""

    #: Human-readable agent name used in reports.
    NAME = "base"

    def __init__(self, ctx: Optional[AgentContext] = None,
                 config: Optional[AgentConfig] = None) -> None:
        self.ctx = ctx
        self.config = config if config is not None else AgentConfig()
        self.ports = SwitchPortSet(count=self.config.port_count)
        self.flow_table = FlowTable()
        self.buffer_pool = PacketBufferPool(capacity=self.config.n_buffers)
        # Switch configuration state mutated by SET_CONFIG.
        self.frag_flags: FieldValue = c.OFPC_FRAG_NORMAL
        self.miss_send_len: FieldValue = c.OFP_DEFAULT_MISS_SEND_LEN
        # Set once the agent has crashed; subsequent inputs are ignored.
        self.crashed = False
        # True while a Packet Out message is being executed (OFPP_TABLE guard).
        self._in_packet_out = False

    # ------------------------------------------------------------------
    # Environment plumbing
    # ------------------------------------------------------------------

    def attach(self, ctx: AgentContext) -> None:
        """Connect the agent to its environment (controller + data plane)."""

        self.ctx = ctx

    def send(self, message: OpenFlowMessage) -> None:
        if self.ctx is None:
            raise MessageParseError("agent is not attached to a context")
        self.ctx.send_to_controller(message)

    def send_error(self, xid: FieldValue, err_type: int, code: int,
                   data: bytes = b"") -> None:
        self.send(ErrorMsg(xid=xid, err_type=err_type, code=code, data=data))

    def output_packet(self, port: FieldValue, frame_summary: str, length: int = 0) -> None:
        if self.ctx is None:
            raise MessageParseError("agent is not attached to a context")
        self.ctx.output_packet(port, frame_summary, length)

    def abort(self, reason: str) -> None:
        """Model a process-level crash (segfault/assert) of the agent."""

        self.crashed = True
        raise AgentCrash(reason)

    # ------------------------------------------------------------------
    # Control channel entry point
    # ------------------------------------------------------------------

    def handle_control_buffer(self, buf: SymBuffer) -> None:
        """Process one controller-to-switch message from its wire bytes."""

        if self.crashed:
            return
        fault_point("agent.handle", getattr(self, "NAME", type(self).__name__))
        header = parse_header(buf)
        if header.version != c.OFP_VERSION:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_VERSION)
            return
        if not self.validate_header(header, buf):
            return
        msg_type = header.msg_type
        if msg_type == c.OFPT_HELLO:
            self.handle_hello(buf, header)
        elif msg_type == c.OFPT_ERROR:
            self.handle_error_msg(buf, header)
        elif msg_type == c.OFPT_ECHO_REQUEST:
            self.handle_echo_request(buf, header)
        elif msg_type == c.OFPT_ECHO_REPLY:
            pass
        elif msg_type == c.OFPT_VENDOR:
            self.handle_vendor(buf, header)
        elif msg_type == c.OFPT_FEATURES_REQUEST:
            self.handle_features_request(buf, header)
        elif msg_type == c.OFPT_GET_CONFIG_REQUEST:
            self.handle_get_config_request(buf, header)
        elif msg_type == c.OFPT_SET_CONFIG:
            self.handle_set_config(buf, header)
        elif msg_type == c.OFPT_PACKET_OUT:
            self.handle_packet_out(buf, header)
        elif msg_type == c.OFPT_FLOW_MOD:
            self.handle_flow_mod(buf, header)
        elif msg_type == c.OFPT_PORT_MOD:
            self.handle_port_mod(buf, header)
        elif msg_type == c.OFPT_STATS_REQUEST:
            self.handle_stats_request(buf, header)
        elif msg_type == c.OFPT_BARRIER_REQUEST:
            self.handle_barrier_request(buf, header)
        elif msg_type == c.OFPT_QUEUE_GET_CONFIG_REQUEST:
            self.handle_queue_get_config_request(buf, header)
        elif msg_type == c.OFPT_FEATURES_REPLY or msg_type == c.OFPT_GET_CONFIG_REPLY \
                or msg_type == c.OFPT_PACKET_IN or msg_type == c.OFPT_FLOW_REMOVED \
                or msg_type == c.OFPT_PORT_STATUS or msg_type == c.OFPT_STATS_REPLY \
                or msg_type == c.OFPT_BARRIER_REPLY or msg_type == c.OFPT_QUEUE_GET_CONFIG_REPLY:
            # Switch-to-controller message types arriving on the switch side.
            self.handle_unexpected_type(buf, header)
        else:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_TYPE)

    # ------------------------------------------------------------------
    # Header / dispatch hooks (overridable; implementations disagree here)
    # ------------------------------------------------------------------

    def validate_header(self, header, buf: SymBuffer) -> bool:
        """Check the header's length field.  Returns False to stop processing.

        The default accepts anything; subclasses implement the (differing)
        checks their C counterparts perform.
        """

        return True

    def handle_unexpected_type(self, buf: SymBuffer, header) -> None:
        """A switch-to-controller message type arrived on the switch side."""

        self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_TYPE)

    # ------------------------------------------------------------------
    # Trivial shared handlers (identical in both C implementations)
    # ------------------------------------------------------------------

    def handle_hello(self, buf: SymBuffer, header) -> None:
        """HELLO after connection setup carries no semantics for v1.0 peers."""

    def handle_error_msg(self, buf: SymBuffer, header) -> None:
        """Errors from the controller are logged and otherwise ignored."""

    def handle_echo_request(self, buf: SymBuffer, header) -> None:
        payload = buf.read_bytes(c.OFP_HEADER_LEN, len(buf) - c.OFP_HEADER_LEN)
        self.send(EchoReply(xid=header.xid, data=payload))

    def handle_vendor(self, buf: SymBuffer, header) -> None:
        self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_VENDOR)

    def handle_features_request(self, buf: SymBuffer, header) -> None:
        self.send(FeaturesReply(
            xid=header.xid,
            datapath_id=self.config.datapath_id,
            n_buffers=self.config.n_buffers,
            n_tables=self.config.n_tables,
            capabilities=self.config.capabilities,
            actions=self.config.supported_actions,
            ports=self.ports.phy_ports(),
        ))

    def handle_get_config_request(self, buf: SymBuffer, header) -> None:
        self.send(GetConfigReply(xid=header.xid, flags=self.frag_flags,
                                 miss_send_len=self.miss_send_len))

    def handle_barrier_request(self, buf: SymBuffer, header) -> None:
        self.send(BarrierReply(xid=header.xid))

    def handle_port_mod(self, buf: SymBuffer, header) -> None:
        if len(buf) < 32:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        port_no = buf.read_u16(8)
        if not self.ports.contains(port_no):
            self.send_error(header.xid, c.OFPET_PORT_MOD_FAILED, c.OFPPMFC_BAD_PORT)
            return
        # Port configuration changes have no externally visible effect in the
        # emulated data plane; accepting silently matches both C agents.

    # ------------------------------------------------------------------
    # Handlers that differ between agents (implemented by subclasses)
    # ------------------------------------------------------------------

    def handle_set_config(self, buf: SymBuffer, header) -> None:
        raise NotImplementedError

    def handle_packet_out(self, buf: SymBuffer, header) -> None:
        raise NotImplementedError

    def handle_flow_mod(self, buf: SymBuffer, header) -> None:
        raise NotImplementedError

    def handle_stats_request(self, buf: SymBuffer, header) -> None:
        raise NotImplementedError

    def handle_queue_get_config_request(self, buf: SymBuffer, header) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Data plane entry point
    # ------------------------------------------------------------------

    def handle_dataplane_packet(self, in_port: FieldValue, frame: SymBuffer) -> bool:
        """Process one received frame.  Returns True when any output was produced."""

        if self.crashed:
            return False
        key = extract_flow_key(frame, in_port)
        if self.should_drop_fragment(key, frame):
            return False
        entry = self.flow_table.lookup(key)
        if entry is None:
            self.send_packet_in(in_port, frame, reason=c.OFPR_NO_MATCH)
            return True
        entry.packet_count += 1
        entry.byte_count += len(frame)
        return self.apply_entry_actions(entry, key, in_port, frame)

    def should_drop_fragment(self, key: FlowKey, frame: SymBuffer) -> bool:
        """Fragment-handling policy installed by SET_CONFIG (OFPC_FRAG_DROP)."""

        if self.frag_flags == c.OFPC_FRAG_DROP:
            return self._frame_is_ip_fragment(frame)
        return False

    @staticmethod
    def _frame_is_ip_fragment(frame: SymBuffer) -> bool:
        if len(frame) < 22:
            return False
        dl_type = frame.read_u16(12)
        if not isinstance(dl_type, int) or dl_type != c.ETH_TYPE_IP:
            return False
        frag_field = frame.read_u16(20)
        if isinstance(frag_field, int):
            return (frag_field & 0x3FFF) != 0
        return bool((frag_field & 0x3FFF) != 0)

    def send_packet_in(self, in_port: FieldValue, frame: SymBuffer, reason: int) -> None:
        """Forward a packet to the controller, honouring ``miss_send_len``.

        When ``miss_send_len`` is a symbolic value (the Set Config test) and
        the limit is below the frame length, the payload cannot be sliced to a
        symbolic length; the PACKET_IN is sent with an empty payload on that
        path, which the normalized trace records as "truncated".
        """

        data = frame
        limit = self.miss_send_len
        if isinstance(limit, int):
            if len(frame) > limit:
                data = frame.read_bytes(0, limit)
        else:
            if limit >= len(frame):
                pass  # the whole frame fits
            else:
                data = frame.read_bytes(0, 0)
        buffer_id = self.buffer_pool.store(frame) if reason == c.OFPR_NO_MATCH else c.OFP_NO_BUFFER
        self.send(PacketIn(
            buffer_id=buffer_id,
            total_len=len(frame),
            in_port=in_port,
            reason=reason,
            data=data.to_bytes() if data.is_concrete else b"",
        ))

    # ------------------------------------------------------------------
    # Action application (shared mechanics, agent-specific hooks)
    # ------------------------------------------------------------------

    def apply_entry_actions(self, entry: FlowEntry, key: FlowKey,
                            in_port: FieldValue, frame: SymBuffer) -> bool:
        """Apply a matched entry's actions to the packet.  True if output produced."""

        return self.apply_actions(entry.actions, key, in_port, frame)

    def apply_actions(self, actions: List[Action], key: FlowKey,
                      in_port: FieldValue, frame: SymBuffer) -> bool:
        """Execute an action list; returns True when at least one output happened."""

        from repro.openflow.actions import (
            ActionEnqueue,
            ActionOutput,
            ActionSetDlDst,
            ActionSetDlSrc,
            ActionSetNwDst,
            ActionSetNwSrc,
            ActionSetNwTos,
            ActionSetTpDst,
            ActionSetTpSrc,
            ActionSetVlanPcp,
            ActionSetVlanVid,
            ActionStripVlan,
        )

        produced = False
        for action in actions:
            if isinstance(action, ActionOutput):
                produced = self.execute_output(action.port, action.max_len, key,
                                               in_port, frame) or produced
            elif isinstance(action, ActionEnqueue):
                produced = self.execute_output(action.port, 0, key, in_port, frame) or produced
            elif isinstance(action, ActionSetVlanVid):
                self.rewrite_field(key, "dl_vlan", action.vlan_vid)
            elif isinstance(action, ActionSetVlanPcp):
                self.rewrite_field(key, "dl_vlan_pcp", action.vlan_pcp)
            elif isinstance(action, ActionStripVlan):
                key.dl_vlan = c.OFP_VLAN_NONE
                key.dl_vlan_pcp = 0
            elif isinstance(action, ActionSetDlSrc):
                self.rewrite_field(key, "dl_src", action.dl_addr)
            elif isinstance(action, ActionSetDlDst):
                self.rewrite_field(key, "dl_dst", action.dl_addr)
            elif isinstance(action, ActionSetNwSrc):
                self.rewrite_field(key, "nw_src", action.nw_addr)
            elif isinstance(action, ActionSetNwDst):
                self.rewrite_field(key, "nw_dst", action.nw_addr)
            elif isinstance(action, ActionSetNwTos):
                self.rewrite_field(key, "nw_tos", action.nw_tos)
            elif isinstance(action, ActionSetTpSrc):
                self.rewrite_field(key, "tp_src", action.tp_port)
            elif isinstance(action, ActionSetTpDst):
                self.rewrite_field(key, "tp_dst", action.tp_port)
            else:
                # RawAction / vendor actions reaching execution were accepted by
                # the agent's validator; subclasses decide what that means.
                produced = self.execute_raw_action(action, key, in_port, frame) or produced
        return produced

    def rewrite_field(self, key: FlowKey, name: str, value: FieldValue) -> None:
        """Set a header field on the packet being forwarded (no masking here)."""

        setattr(key, name, value)

    def execute_raw_action(self, action: Action, key: FlowKey,
                           in_port: FieldValue, frame: SymBuffer) -> bool:
        """Execute an action the shared code does not know; default: no effect."""

        return False

    def execute_output(self, port: FieldValue, max_len: FieldValue, key: FlowKey,
                       in_port: FieldValue, frame: SymBuffer) -> bool:
        """Send the (possibly rewritten) packet out of *port*.  True on output."""

        summary = key.describe()
        if port == c.OFPP_IN_PORT:
            self.output_packet(in_port, summary, len(frame))
            return True
        if port == c.OFPP_TABLE:
            # Re-inject into the flow table: only meaningful for Packet Out.
            # The _in_packet_out guard prevents unbounded recursion when a flow
            # entry (incorrectly) outputs to TABLE.
            if self._in_packet_out:
                self._in_packet_out = False
                try:
                    return self.handle_dataplane_packet(in_port, frame)
                finally:
                    self._in_packet_out = True
            return False
        if port == c.OFPP_FLOOD or port == c.OFPP_ALL:
            self.output_packet("FLOOD" if port == c.OFPP_FLOOD else "ALL", summary, len(frame))
            return True
        if port == c.OFPP_CONTROLLER:
            self.send_packet_in(in_port, frame, reason=c.OFPR_ACTION)
            return True
        if port == c.OFPP_NORMAL:
            return self.execute_normal_output(key, in_port, frame)
        if port == c.OFPP_LOCAL:
            self.output_packet("LOCAL", summary, len(frame))
            return True
        if port == c.OFPP_NONE:
            return False
        if self.ports.contains(port):
            self.output_packet(port, summary, len(frame))
            return True
        # Output to a port this switch does not have: drop.
        return False

    def execute_normal_output(self, key: FlowKey, in_port: FieldValue,
                              frame: SymBuffer) -> bool:
        """OFPP_NORMAL (traditional L2/L3 processing); support differs by agent."""

        return False

    # ------------------------------------------------------------------
    # Helpers shared by the Flow Mod handlers
    # ------------------------------------------------------------------

    def parse_flow_mod_fields(self, buf: SymBuffer):
        """Read the fixed Flow Mod fields and the action list."""

        match = Match.unpack(buf, 8)
        cookie = buf.read_u64(48)
        command = buf.read_u16(56)
        idle_timeout = buf.read_u16(58)
        hard_timeout = buf.read_u16(60)
        priority = buf.read_u16(62)
        buffer_id = buf.read_u32(64)
        out_port = buf.read_u16(68)
        flags = buf.read_u16(70)
        actions = unpack_actions(buf, c.OFP_FLOW_MOD_LEN, len(buf) - c.OFP_FLOW_MOD_LEN)
        return match, cookie, command, idle_timeout, hard_timeout, priority, \
            buffer_id, out_port, flags, actions

    def parse_packet_out_fields(self, buf: SymBuffer):
        """Read the fixed Packet Out fields, the action list and the payload."""

        buffer_id = buf.read_u32(8)
        in_port = buf.read_u16(12)
        actions_len = field_int(buf.read_u16(14))
        actions = unpack_actions(buf, c.OFP_PACKET_OUT_LEN, actions_len)
        data_offset = c.OFP_PACKET_OUT_LEN + actions_len
        data = buf.read_bytes(data_offset, len(buf) - data_offset)
        return buffer_id, in_port, actions, data
