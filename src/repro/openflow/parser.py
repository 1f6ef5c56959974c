"""Parsing of OpenFlow messages from byte buffers.

The agents embed their own dispatch-on-type logic (that is where behavioural
differences live), but they share these low-level helpers for reading the
fixed header and the structured bodies, the same way the C implementations
share ``openflow.h`` struct definitions.  The module is also used by the
replay tooling to turn concrete test-case bytes back into message objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MessageParseError
from repro.openflow import constants as c
from repro.openflow.actions import unpack_actions
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesRequest,
    FlowMod,
    GetConfigRequest,
    Hello,
    OpenFlowMessage,
    PacketOut,
    PortMod,
    QueueGetConfigRequest,
    SetConfig,
    StatsRequest,
    Vendor,
)
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, field_int

__all__ = ["Header", "parse_header", "parse_message"]


@dataclass
class Header:
    """The fixed 8-byte ``ofp_header``."""

    version: FieldValue
    msg_type: FieldValue
    length: FieldValue
    xid: FieldValue


def parse_header(buf: SymBuffer) -> Header:
    """Read the fixed header; raises when the buffer is shorter than 8 bytes."""

    if len(buf) < c.OFP_HEADER_LEN:
        raise MessageParseError(
            "buffer of %d bytes is too short for an OpenFlow header" % len(buf)
        )
    return Header(
        version=buf.read_u8(0),
        msg_type=buf.read_u8(1),
        length=buf.read_u16(2),
        xid=buf.read_u32(4),
    )


def parse_message(buf: SymBuffer) -> OpenFlowMessage:
    """Parse a full controller-to-switch message with a *concrete* type field.

    Replay and test tooling uses this; agents use their own dispatch so that
    symbolic type fields drive symbolic branching inside agent code.
    """

    header = parse_header(buf)
    msg_type = field_int(header.msg_type)
    xid = header.xid
    body_len = len(buf) - c.OFP_HEADER_LEN

    if msg_type == c.OFPT_HELLO:
        return Hello(xid=xid)
    if msg_type == c.OFPT_ERROR:
        return ErrorMsg(xid=xid, err_type=buf.read_u16(8), code=buf.read_u16(10),
                        data=buf.read_bytes(12, len(buf) - 12))
    if msg_type == c.OFPT_ECHO_REQUEST:
        return EchoRequest(xid=xid, data=buf.read_bytes(8, body_len))
    if msg_type == c.OFPT_ECHO_REPLY:
        return EchoReply(xid=xid, data=buf.read_bytes(8, body_len))
    if msg_type == c.OFPT_VENDOR:
        if body_len < 4:
            raise MessageParseError("VENDOR message shorter than its vendor id")
        return Vendor(xid=xid, vendor=buf.read_u32(8), data=buf.read_bytes(12, len(buf) - 12))
    if msg_type == c.OFPT_FEATURES_REQUEST:
        return FeaturesRequest(xid=xid)
    if msg_type == c.OFPT_GET_CONFIG_REQUEST:
        return GetConfigRequest(xid=xid)
    if msg_type == c.OFPT_SET_CONFIG:
        if body_len < 4:
            raise MessageParseError("SET_CONFIG message truncated")
        return SetConfig(xid=xid, flags=buf.read_u16(8), miss_send_len=buf.read_u16(10))
    if msg_type == c.OFPT_PACKET_OUT:
        return _parse_packet_out(buf, xid)
    if msg_type == c.OFPT_FLOW_MOD:
        return _parse_flow_mod(buf, xid)
    if msg_type == c.OFPT_PORT_MOD:
        if body_len < 24:
            raise MessageParseError("PORT_MOD message truncated")
        return PortMod(xid=xid, port_no=buf.read_u16(8),
                       hw_addr=_read_mac(buf, 10),
                       config=buf.read_u32(16), mask=buf.read_u32(20),
                       advertise=buf.read_u32(24))
    if msg_type == c.OFPT_STATS_REQUEST:
        if body_len < 4:
            raise MessageParseError("STATS_REQUEST message truncated")
        return StatsRequest(xid=xid, stats_type=buf.read_u16(8), flags=buf.read_u16(10),
                            stats_body=buf.read_bytes(12, len(buf) - 12))
    if msg_type == c.OFPT_BARRIER_REQUEST:
        return BarrierRequest(xid=xid)
    if msg_type == c.OFPT_BARRIER_REPLY:
        return BarrierReply(xid=xid)
    if msg_type == c.OFPT_QUEUE_GET_CONFIG_REQUEST:
        if body_len < 2:
            raise MessageParseError("QUEUE_GET_CONFIG_REQUEST message truncated")
        return QueueGetConfigRequest(xid=xid, port=buf.read_u16(8))
    raise MessageParseError("cannot parse message type %d" % msg_type)


def _read_mac(buf: SymBuffer, offset: int) -> FieldValue:
    from repro.openflow.match import _read_mac as read_mac

    return read_mac(buf, offset)


def _parse_packet_out(buf: SymBuffer, xid: FieldValue) -> PacketOut:
    if len(buf) < c.OFP_PACKET_OUT_LEN:
        raise MessageParseError("PACKET_OUT message truncated")
    actions_len = field_int(buf.read_u16(14))
    if c.OFP_PACKET_OUT_LEN + actions_len > len(buf):
        raise MessageParseError("PACKET_OUT actions overrun the message")
    actions = unpack_actions(buf, c.OFP_PACKET_OUT_LEN, actions_len)
    data_offset = c.OFP_PACKET_OUT_LEN + actions_len
    return PacketOut(
        xid=xid,
        buffer_id=buf.read_u32(8),
        in_port=buf.read_u16(12),
        actions=actions,
        data=buf.read_bytes(data_offset, len(buf) - data_offset),
    )


def _parse_flow_mod(buf: SymBuffer, xid: FieldValue) -> FlowMod:
    if len(buf) < c.OFP_FLOW_MOD_LEN:
        raise MessageParseError("FLOW_MOD message truncated")
    match = Match.unpack(buf, 8)
    actions = unpack_actions(buf, c.OFP_FLOW_MOD_LEN, len(buf) - c.OFP_FLOW_MOD_LEN)
    return FlowMod(
        xid=xid,
        match=match,
        cookie=buf.read_u64(48),
        command=buf.read_u16(56),
        idle_timeout=buf.read_u16(58),
        hard_timeout=buf.read_u16(60),
        priority=buf.read_u16(62),
        buffer_id=buf.read_u32(64),
        out_port=buf.read_u16(68),
        flags=buf.read_u16(70),
        actions=actions,
    )
