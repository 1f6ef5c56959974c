"""OpenFlow 1.0 control messages.

Every message supports ``pack()`` into a (possibly symbolic)
:class:`~repro.wire.buffer.SymBuffer` and a classmethod ``unpack`` from one.
The message *structure* (type code, total length, number and size of actions)
is always concrete — the paper's key scalability insight (§3.2.1) — while the
individual field values may be symbolic bit-vectors.

Agents receive the packed buffers on their control channel and run their own
parsing/validation code over them; they respond with message *objects*, which
the harness records in the output trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.openflow import constants as c
from repro.openflow.actions import Action, pack_actions
from repro.openflow.match import Match
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, field_repr

__all__ = [
    "OpenFlowMessage",
    "Hello",
    "ErrorMsg",
    "EchoRequest",
    "EchoReply",
    "Vendor",
    "FeaturesRequest",
    "FeaturesReply",
    "GetConfigRequest",
    "GetConfigReply",
    "SetConfig",
    "PacketIn",
    "FlowRemoved",
    "PortStatus",
    "PacketOut",
    "FlowMod",
    "PortMod",
    "StatsRequest",
    "StatsReply",
    "BarrierRequest",
    "BarrierReply",
    "QueueGetConfigRequest",
    "QueueGetConfigReply",
    "PhyPort",
]

DataLike = Union[bytes, SymBuffer]


def _data_buffer(data: DataLike) -> SymBuffer:
    if isinstance(data, SymBuffer):
        return data
    return SymBuffer(data)


@dataclass
class OpenFlowMessage:
    """Common header fields of every OpenFlow message."""

    TYPE = -1

    xid: FieldValue = 0
    version: FieldValue = c.OFP_VERSION

    def body(self) -> SymBuffer:
        """Serialize the message body (everything after the 8-byte header)."""

        return SymBuffer()

    def pack(self) -> SymBuffer:
        """Serialize header plus body; the length field is always concrete."""

        body = self.body()
        buf = SymBuffer()
        buf.write_u8(self.version)
        buf.write_u8(self.TYPE)
        buf.write_u16(c.OFP_HEADER_LEN + len(body))
        buf.write_u32(self.xid)
        buf.write_bytes(body)
        return buf

    @property
    def type_name(self) -> str:
        return c.MESSAGE_TYPE_NAMES.get(self.TYPE, "UNKNOWN(%d)" % self.TYPE)

    def describe(self) -> str:
        """Stable, human-readable one-line rendering (used in traces)."""

        return "%s(xid=%s)" % (self.type_name, field_repr(self.xid))


@dataclass
class Hello(OpenFlowMessage):
    """OFPT_HELLO: version negotiation at connection setup."""

    TYPE = c.OFPT_HELLO


@dataclass
class ErrorMsg(OpenFlowMessage):
    """OFPT_ERROR: the switch rejects or fails to process a request."""

    TYPE = c.OFPT_ERROR

    err_type: FieldValue = 0
    code: FieldValue = 0
    data: DataLike = b""

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.err_type)
        buf.write_u16(self.code)
        buf.write_bytes(_data_buffer(self.data))
        return buf

    def describe(self) -> str:
        type_name = c.ERROR_TYPE_NAMES.get(self.err_type, str(self.err_type)) \
            if isinstance(self.err_type, int) else field_repr(self.err_type)
        if isinstance(self.err_type, int) and isinstance(self.code, int):
            code_name = c.ERROR_CODE_NAMES.get(self.err_type, {}).get(self.code, str(self.code))
        else:
            code_name = field_repr(self.code)
        return "ERROR(type=%s,code=%s)" % (type_name, code_name)


@dataclass
class EchoRequest(OpenFlowMessage):
    """OFPT_ECHO_REQUEST: keep-alive probe from the controller."""

    TYPE = c.OFPT_ECHO_REQUEST

    data: DataLike = b""

    def body(self) -> SymBuffer:
        return _data_buffer(self.data).copy()

    def describe(self) -> str:
        return "ECHO_REQUEST(%d bytes)" % len(_data_buffer(self.data))


@dataclass
class EchoReply(OpenFlowMessage):
    """OFPT_ECHO_REPLY: answer to an echo request, echoing its payload."""

    TYPE = c.OFPT_ECHO_REPLY

    data: DataLike = b""

    def body(self) -> SymBuffer:
        return _data_buffer(self.data).copy()

    def describe(self) -> str:
        return "ECHO_REPLY(%d bytes)" % len(_data_buffer(self.data))


@dataclass
class Vendor(OpenFlowMessage):
    """OFPT_VENDOR: vendor extension container."""

    TYPE = c.OFPT_VENDOR

    vendor: FieldValue = 0
    data: DataLike = b""

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u32(self.vendor)
        buf.write_bytes(_data_buffer(self.data))
        return buf

    def describe(self) -> str:
        return "VENDOR(id=%s)" % field_repr(self.vendor)


@dataclass
class FeaturesRequest(OpenFlowMessage):
    """OFPT_FEATURES_REQUEST: ask the switch for its datapath description."""

    TYPE = c.OFPT_FEATURES_REQUEST


@dataclass
class PhyPort:
    """``ofp_phy_port``: description of one physical port."""

    port_no: FieldValue = 0
    hw_addr: FieldValue = 0
    name: str = ""
    config: FieldValue = 0
    state: FieldValue = 0
    curr: FieldValue = 0
    advertised: FieldValue = 0
    supported: FieldValue = 0
    peer: FieldValue = 0

    def pack(self) -> SymBuffer:
        from repro.openflow.match import _mac_bytes

        buf = SymBuffer()
        buf.write_u16(self.port_no)
        buf.write_bytes(_mac_bytes(self.hw_addr))
        name_bytes = self.name.encode("ascii")[: c.OFP_MAX_PORT_NAME_LEN]
        buf.write_bytes(name_bytes)
        buf.pad(c.OFP_MAX_PORT_NAME_LEN - len(name_bytes))
        buf.write_u32(self.config)
        buf.write_u32(self.state)
        buf.write_u32(self.curr)
        buf.write_u32(self.advertised)
        buf.write_u32(self.supported)
        buf.write_u32(self.peer)
        return buf

    def describe(self) -> str:
        return "port(no=%s,name=%s)" % (field_repr(self.port_no), self.name)


@dataclass
class FeaturesReply(OpenFlowMessage):
    """OFPT_FEATURES_REPLY: datapath id, table/buffer counts and port list."""

    TYPE = c.OFPT_FEATURES_REPLY

    datapath_id: FieldValue = 0
    n_buffers: FieldValue = 0
    n_tables: FieldValue = 1
    capabilities: FieldValue = 0
    actions: FieldValue = 0
    ports: List[PhyPort] = field(default_factory=list)

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u64(self.datapath_id)
        buf.write_u32(self.n_buffers)
        buf.write_u8(self.n_tables)
        buf.pad(3)
        buf.write_u32(self.capabilities)
        buf.write_u32(self.actions)
        for port in self.ports:
            buf.write_bytes(port.pack())
        return buf

    def describe(self) -> str:
        return "FEATURES_REPLY(dpid=%s,ports=%d)" % (field_repr(self.datapath_id), len(self.ports))


@dataclass
class GetConfigRequest(OpenFlowMessage):
    """OFPT_GET_CONFIG_REQUEST."""

    TYPE = c.OFPT_GET_CONFIG_REQUEST


@dataclass
class _SwitchConfig(OpenFlowMessage):
    """Shared body of GET_CONFIG_REPLY and SET_CONFIG."""

    flags: FieldValue = 0
    miss_send_len: FieldValue = c.OFP_DEFAULT_MISS_SEND_LEN

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.flags)
        buf.write_u16(self.miss_send_len)
        return buf

    def describe(self) -> str:
        return "%s(flags=%s,miss_send_len=%s)" % (
            self.type_name, field_repr(self.flags), field_repr(self.miss_send_len))


@dataclass
class GetConfigReply(_SwitchConfig):
    """OFPT_GET_CONFIG_REPLY."""

    TYPE = c.OFPT_GET_CONFIG_REPLY


@dataclass
class SetConfig(_SwitchConfig):
    """OFPT_SET_CONFIG: fragment handling flags and miss_send_len."""

    TYPE = c.OFPT_SET_CONFIG


@dataclass
class PacketIn(OpenFlowMessage):
    """OFPT_PACKET_IN: the switch hands a packet to the controller."""

    TYPE = c.OFPT_PACKET_IN

    buffer_id: FieldValue = c.OFP_NO_BUFFER
    total_len: FieldValue = 0
    in_port: FieldValue = 0
    reason: FieldValue = c.OFPR_NO_MATCH
    data: DataLike = b""

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u32(self.buffer_id)
        buf.write_u16(self.total_len)
        buf.write_u16(self.in_port)
        buf.write_u8(self.reason)
        buf.pad(1)
        buf.write_bytes(_data_buffer(self.data))
        return buf

    def describe(self) -> str:
        return "PACKET_IN(in_port=%s,reason=%s,len=%d)" % (
            field_repr(self.in_port), field_repr(self.reason), len(_data_buffer(self.data)))


@dataclass
class FlowRemoved(OpenFlowMessage):
    """OFPT_FLOW_REMOVED: a flow entry expired or was deleted."""

    TYPE = c.OFPT_FLOW_REMOVED

    match: Match = field(default_factory=Match)
    cookie: FieldValue = 0
    priority: FieldValue = 0
    reason: FieldValue = c.OFPRR_IDLE_TIMEOUT
    duration_sec: FieldValue = 0
    duration_nsec: FieldValue = 0
    idle_timeout: FieldValue = 0
    packet_count: FieldValue = 0
    byte_count: FieldValue = 0

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_bytes(self.match.pack())
        buf.write_u64(self.cookie)
        buf.write_u16(self.priority)
        buf.write_u8(self.reason)
        buf.pad(1)
        buf.write_u32(self.duration_sec)
        buf.write_u32(self.duration_nsec)
        buf.write_u16(self.idle_timeout)
        buf.pad(2)
        buf.write_u64(self.packet_count)
        buf.write_u64(self.byte_count)
        return buf

    def describe(self) -> str:
        return "FLOW_REMOVED(reason=%s,priority=%s)" % (
            field_repr(self.reason), field_repr(self.priority))


@dataclass
class PortStatus(OpenFlowMessage):
    """OFPT_PORT_STATUS: a port was added, removed or modified."""

    TYPE = c.OFPT_PORT_STATUS

    reason: FieldValue = c.OFPPR_MODIFY
    desc: PhyPort = field(default_factory=PhyPort)

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u8(self.reason)
        buf.pad(7)
        buf.write_bytes(self.desc.pack())
        return buf

    def describe(self) -> str:
        return "PORT_STATUS(reason=%s,%s)" % (field_repr(self.reason), self.desc.describe())


@dataclass
class PacketOut(OpenFlowMessage):
    """OFPT_PACKET_OUT: the controller asks the switch to emit a packet."""

    TYPE = c.OFPT_PACKET_OUT

    buffer_id: FieldValue = c.OFP_NO_BUFFER
    in_port: FieldValue = c.OFPP_NONE
    actions: List[Action] = field(default_factory=list)
    data: DataLike = b""

    def body(self) -> SymBuffer:
        actions = pack_actions(self.actions)
        buf = SymBuffer()
        buf.write_u32(self.buffer_id)
        buf.write_u16(self.in_port)
        buf.write_u16(len(actions))
        buf.write_bytes(actions)
        buf.write_bytes(_data_buffer(self.data))
        return buf

    def describe(self) -> str:
        return "PACKET_OUT(buffer_id=%s,in_port=%s,actions=[%s],data=%d bytes)" % (
            field_repr(self.buffer_id),
            field_repr(self.in_port),
            ",".join(a.describe() for a in self.actions),
            len(_data_buffer(self.data)),
        )


@dataclass
class FlowMod(OpenFlowMessage):
    """OFPT_FLOW_MOD: add, modify or delete a flow table entry."""

    TYPE = c.OFPT_FLOW_MOD

    match: Match = field(default_factory=Match)
    cookie: FieldValue = 0
    command: FieldValue = c.OFPFC_ADD
    idle_timeout: FieldValue = 0
    hard_timeout: FieldValue = 0
    priority: FieldValue = c.OFP_DEFAULT_PRIORITY
    buffer_id: FieldValue = c.OFP_NO_BUFFER
    out_port: FieldValue = c.OFPP_NONE
    flags: FieldValue = 0
    actions: List[Action] = field(default_factory=list)

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_bytes(self.match.pack())
        buf.write_u64(self.cookie)
        buf.write_u16(self.command)
        buf.write_u16(self.idle_timeout)
        buf.write_u16(self.hard_timeout)
        buf.write_u16(self.priority)
        buf.write_u32(self.buffer_id)
        buf.write_u16(self.out_port)
        buf.write_u16(self.flags)
        buf.write_bytes(pack_actions(self.actions))
        return buf

    def describe(self) -> str:
        command = c.FLOW_MOD_COMMAND_NAMES.get(self.command, str(self.command)) \
            if isinstance(self.command, int) else field_repr(self.command)
        return "FLOW_MOD(cmd=%s,priority=%s,actions=[%s])" % (
            command, field_repr(self.priority), ",".join(a.describe() for a in self.actions))


@dataclass
class PortMod(OpenFlowMessage):
    """OFPT_PORT_MOD: modify the configuration of a physical port."""

    TYPE = c.OFPT_PORT_MOD

    port_no: FieldValue = 0
    hw_addr: FieldValue = 0
    config: FieldValue = 0
    mask: FieldValue = 0
    advertise: FieldValue = 0

    def body(self) -> SymBuffer:
        from repro.openflow.match import _mac_bytes

        buf = SymBuffer()
        buf.write_u16(self.port_no)
        buf.write_bytes(_mac_bytes(self.hw_addr))
        buf.write_u32(self.config)
        buf.write_u32(self.mask)
        buf.write_u32(self.advertise)
        buf.pad(4)
        return buf

    def describe(self) -> str:
        return "PORT_MOD(port=%s)" % field_repr(self.port_no)


@dataclass
class StatsRequest(OpenFlowMessage):
    """OFPT_STATS_REQUEST: request one class of statistics."""

    TYPE = c.OFPT_STATS_REQUEST

    stats_type: FieldValue = c.OFPST_DESC
    flags: FieldValue = 0
    stats_body: DataLike = b""

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.stats_type)
        buf.write_u16(self.flags)
        buf.write_bytes(_data_buffer(self.stats_body))
        return buf

    def describe(self) -> str:
        name = c.STATS_TYPE_NAMES.get(self.stats_type, str(self.stats_type)) \
            if isinstance(self.stats_type, int) else field_repr(self.stats_type)
        return "STATS_REQUEST(type=%s)" % name


@dataclass
class StatsReply(OpenFlowMessage):
    """OFPT_STATS_REPLY: statistics response (body is type-specific)."""

    TYPE = c.OFPT_STATS_REPLY

    stats_type: FieldValue = c.OFPST_DESC
    flags: FieldValue = 0
    stats_body: DataLike = b""
    #: Optional structured rendering used for trace comparison (set by agents).
    summary: str = ""

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.stats_type)
        buf.write_u16(self.flags)
        buf.write_bytes(_data_buffer(self.stats_body))
        return buf

    def describe(self) -> str:
        name = c.STATS_TYPE_NAMES.get(self.stats_type, str(self.stats_type)) \
            if isinstance(self.stats_type, int) else field_repr(self.stats_type)
        if self.summary:
            return "STATS_REPLY(type=%s,%s)" % (name, self.summary)
        return "STATS_REPLY(type=%s,%d bytes)" % (name, len(_data_buffer(self.stats_body)))


@dataclass
class BarrierRequest(OpenFlowMessage):
    """OFPT_BARRIER_REQUEST."""

    TYPE = c.OFPT_BARRIER_REQUEST


@dataclass
class BarrierReply(OpenFlowMessage):
    """OFPT_BARRIER_REPLY."""

    TYPE = c.OFPT_BARRIER_REPLY


@dataclass
class QueueGetConfigRequest(OpenFlowMessage):
    """OFPT_QUEUE_GET_CONFIG_REQUEST: ask for the queues configured on a port."""

    TYPE = c.OFPT_QUEUE_GET_CONFIG_REQUEST

    port: FieldValue = 0

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.port)
        buf.pad(2)
        return buf

    def describe(self) -> str:
        return "QUEUE_GET_CONFIG_REQUEST(port=%s)" % field_repr(self.port)


@dataclass
class QueueGetConfigReply(OpenFlowMessage):
    """OFPT_QUEUE_GET_CONFIG_REPLY."""

    TYPE = c.OFPT_QUEUE_GET_CONFIG_REPLY

    port: FieldValue = 0
    queues: List[int] = field(default_factory=list)

    def body(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.port)
        buf.pad(6)
        for queue_id in self.queues:
            buf.write_u32(queue_id)
            buf.write_u16(8)
            buf.pad(2)
        return buf

    def describe(self) -> str:
        return "QUEUE_GET_CONFIG_REPLY(port=%s,queues=%d)" % (field_repr(self.port), len(self.queues))
