"""OpenFlow 1.0 action structures.

Actions appear inside ``Flow Mod`` and ``Packet Out`` messages.  Each action
is a fixed-size structure whose length is a multiple of 8 bytes; action lists
concatenate them back to back.  As with :class:`~repro.openflow.match.Match`,
these classes carry data and wire format only — validation and application
semantics belong to the agents (and differ between them, which is the point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConcretizationError, MessageParseError
from repro.openflow import constants as c
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, as_field, field_int, field_repr

__all__ = [
    "Action",
    "ActionOutput",
    "ActionSetVlanVid",
    "ActionSetVlanPcp",
    "ActionStripVlan",
    "ActionSetDlSrc",
    "ActionSetDlDst",
    "ActionSetNwSrc",
    "ActionSetNwDst",
    "ActionSetNwTos",
    "ActionSetTpSrc",
    "ActionSetTpDst",
    "ActionEnqueue",
    "ActionVendor",
    "RawAction",
    "pack_actions",
    "unpack_actions",
    "action_list_length",
]


@dataclass
class Action:
    """Base class of all actions; concrete subclasses define ``TYPE``/``LENGTH``."""

    TYPE = -1
    LENGTH = 8

    def pack(self) -> SymBuffer:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _header(self, length: Optional[int] = None) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.TYPE)
        buf.write_u16(length if length is not None else self.LENGTH)
        return buf


@dataclass
class ActionOutput(Action):
    """Send the packet out of ``port`` (``max_len`` applies to CONTROLLER output)."""

    port: FieldValue = 0
    max_len: FieldValue = 0

    TYPE = c.OFPAT_OUTPUT
    LENGTH = 8

    def __post_init__(self) -> None:
        self.port = as_field(self.port, 16)
        self.max_len = as_field(self.max_len, 16)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u16(self.port)
        buf.write_u16(self.max_len)
        return buf

    def describe(self) -> str:
        return "output(port=%s,max_len=%s)" % (field_repr(self.port), field_repr(self.max_len))


@dataclass
class ActionSetVlanVid(Action):
    """Set the VLAN identifier (12 significant bits on the wire)."""

    vlan_vid: FieldValue = 0

    TYPE = c.OFPAT_SET_VLAN_VID
    LENGTH = 8

    def __post_init__(self) -> None:
        self.vlan_vid = as_field(self.vlan_vid, 16)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u16(self.vlan_vid)
        buf.pad(2)
        return buf

    def describe(self) -> str:
        return "set_vlan_vid(%s)" % field_repr(self.vlan_vid)


@dataclass
class ActionSetVlanPcp(Action):
    """Set the VLAN priority (3 significant bits)."""

    vlan_pcp: FieldValue = 0

    TYPE = c.OFPAT_SET_VLAN_PCP
    LENGTH = 8

    def __post_init__(self) -> None:
        self.vlan_pcp = as_field(self.vlan_pcp, 8)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u8(self.vlan_pcp)
        buf.pad(3)
        return buf

    def describe(self) -> str:
        return "set_vlan_pcp(%s)" % field_repr(self.vlan_pcp)


@dataclass
class ActionStripVlan(Action):
    """Remove any VLAN tag."""

    TYPE = c.OFPAT_STRIP_VLAN
    LENGTH = 8

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.pad(4)
        return buf

    def describe(self) -> str:
        return "strip_vlan()"


@dataclass
class _ActionSetDl(Action):
    """Common base of the set-Ethernet-address actions."""

    dl_addr: FieldValue = 0

    LENGTH = 16

    def __post_init__(self) -> None:
        self.dl_addr = as_field(self.dl_addr, 48)

    def pack(self) -> SymBuffer:
        from repro.openflow.match import _mac_bytes

        buf = self._header()
        buf.write_bytes(_mac_bytes(self.dl_addr))
        buf.pad(6)
        return buf


@dataclass
class ActionSetDlSrc(_ActionSetDl):
    """Set the Ethernet source address."""

    TYPE = c.OFPAT_SET_DL_SRC

    def describe(self) -> str:
        return "set_dl_src(%s)" % field_repr(self.dl_addr)


@dataclass
class ActionSetDlDst(_ActionSetDl):
    """Set the Ethernet destination address."""

    TYPE = c.OFPAT_SET_DL_DST

    def describe(self) -> str:
        return "set_dl_dst(%s)" % field_repr(self.dl_addr)


@dataclass
class _ActionSetNw(Action):
    """Common base of the set-IP-address actions."""

    nw_addr: FieldValue = 0

    LENGTH = 8

    def __post_init__(self) -> None:
        self.nw_addr = as_field(self.nw_addr, 32)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u32(self.nw_addr)
        return buf


@dataclass
class ActionSetNwSrc(_ActionSetNw):
    """Set the IPv4 source address."""

    TYPE = c.OFPAT_SET_NW_SRC

    def describe(self) -> str:
        return "set_nw_src(%s)" % field_repr(self.nw_addr)


@dataclass
class ActionSetNwDst(_ActionSetNw):
    """Set the IPv4 destination address."""

    TYPE = c.OFPAT_SET_NW_DST

    def describe(self) -> str:
        return "set_nw_dst(%s)" % field_repr(self.nw_addr)


@dataclass
class ActionSetNwTos(Action):
    """Set the IP Type-of-Service byte (the two ECN bits must stay zero)."""

    nw_tos: FieldValue = 0

    TYPE = c.OFPAT_SET_NW_TOS
    LENGTH = 8

    def __post_init__(self) -> None:
        self.nw_tos = as_field(self.nw_tos, 8)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u8(self.nw_tos)
        buf.pad(3)
        return buf

    def describe(self) -> str:
        return "set_nw_tos(%s)" % field_repr(self.nw_tos)


@dataclass
class _ActionSetTp(Action):
    """Common base of the set-transport-port actions."""

    tp_port: FieldValue = 0

    LENGTH = 8

    def __post_init__(self) -> None:
        self.tp_port = as_field(self.tp_port, 16)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u16(self.tp_port)
        buf.pad(2)
        return buf


@dataclass
class ActionSetTpSrc(_ActionSetTp):
    """Set the TCP/UDP source port."""

    TYPE = c.OFPAT_SET_TP_SRC

    def describe(self) -> str:
        return "set_tp_src(%s)" % field_repr(self.tp_port)


@dataclass
class ActionSetTpDst(_ActionSetTp):
    """Set the TCP/UDP destination port."""

    TYPE = c.OFPAT_SET_TP_DST

    def describe(self) -> str:
        return "set_tp_dst(%s)" % field_repr(self.tp_port)


@dataclass
class ActionEnqueue(Action):
    """Output the packet through a specific queue attached to ``port``."""

    port: FieldValue = 0
    queue_id: FieldValue = 0

    TYPE = c.OFPAT_ENQUEUE
    LENGTH = 16

    def __post_init__(self) -> None:
        self.port = as_field(self.port, 16)
        self.queue_id = as_field(self.queue_id, 32)

    def pack(self) -> SymBuffer:
        buf = self._header()
        buf.write_u16(self.port)
        buf.pad(6)
        buf.write_u32(self.queue_id)
        return buf

    def describe(self) -> str:
        return "enqueue(port=%s,queue=%s)" % (field_repr(self.port), field_repr(self.queue_id))


@dataclass
class ActionVendor(Action):
    """A vendor-defined action (opaque body)."""

    vendor: FieldValue = 0
    body: bytes = b""

    TYPE = c.OFPAT_VENDOR
    LENGTH = 8

    def __post_init__(self) -> None:
        self.vendor = as_field(self.vendor, 32)

    def pack(self) -> SymBuffer:
        length = 8 + len(self.body)
        if length % 8:
            raise MessageParseError("vendor action body must keep 8-byte alignment")
        buf = self._header(length)
        buf.write_u32(self.vendor)
        buf.write_bytes(self.body)
        return buf

    def describe(self) -> str:
        return "vendor(%s,%d bytes)" % (field_repr(self.vendor), len(self.body))


@dataclass
class RawAction(Action):
    """An action whose *type field itself* is symbolic or unknown.

    The structured symbolic tests make the 16-bit action type a free variable,
    so at message-construction time the action cannot be given a concrete
    class.  A ``RawAction`` carries the symbolic type plus the argument words;
    agents branch on the type during validation, exactly like their C
    counterparts branch on ``ntohs(ah->type)``.
    """

    action_type: FieldValue = 0
    length: int = 8
    arg16_a: FieldValue = 0
    arg16_b: FieldValue = 0

    def __post_init__(self) -> None:
        self.action_type = as_field(self.action_type, 16)
        self.arg16_a = as_field(self.arg16_a, 16)
        self.arg16_b = as_field(self.arg16_b, 16)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.action_type)
        buf.write_u16(self.length)
        buf.write_u16(self.arg16_a)
        buf.write_u16(self.arg16_b)
        if self.length > 8:
            buf.pad(self.length - 8)
        return buf

    def describe(self) -> str:
        return "raw_action(type=%s,a=%s,b=%s)" % (
            field_repr(self.action_type),
            field_repr(self.arg16_a),
            field_repr(self.arg16_b),
        )


# ---------------------------------------------------------------------------
# Action list (de)serialization
# ---------------------------------------------------------------------------

_FIXED_ACTION_PARSERS = {
    c.OFPAT_OUTPUT: lambda buf, off: ActionOutput(buf.read_u16(off + 4), buf.read_u16(off + 6)),
    c.OFPAT_SET_VLAN_VID: lambda buf, off: ActionSetVlanVid(buf.read_u16(off + 4)),
    c.OFPAT_SET_VLAN_PCP: lambda buf, off: ActionSetVlanPcp(buf.read_u8(off + 4)),
    c.OFPAT_STRIP_VLAN: lambda buf, off: ActionStripVlan(),
    c.OFPAT_SET_NW_SRC: lambda buf, off: ActionSetNwSrc(buf.read_u32(off + 4)),
    c.OFPAT_SET_NW_DST: lambda buf, off: ActionSetNwDst(buf.read_u32(off + 4)),
    c.OFPAT_SET_NW_TOS: lambda buf, off: ActionSetNwTos(buf.read_u8(off + 4)),
    c.OFPAT_SET_TP_SRC: lambda buf, off: ActionSetTpSrc(buf.read_u16(off + 4)),
    c.OFPAT_SET_TP_DST: lambda buf, off: ActionSetTpDst(buf.read_u16(off + 4)),
}


def pack_actions(actions: List[Action]) -> SymBuffer:
    """Serialize an action list back to back."""

    buf = SymBuffer()
    for action in actions:
        buf.write_bytes(action.pack())
    return buf


def action_list_length(actions: List[Action]) -> int:
    """Total wire length of an action list in bytes."""

    return len(pack_actions(actions))


def unpack_actions(buf: SymBuffer, offset: int, length: int) -> List[Action]:
    """Parse *length* bytes of actions starting at *offset*.

    The action *type* must be concrete to be dispatched to a specific class;
    when it is symbolic the bytes are wrapped in a :class:`RawAction` so the
    agents themselves perform the (symbolic) type dispatch.
    """

    actions: List[Action] = []
    end = offset + length
    while offset < end:
        if end - offset < 4:
            raise MessageParseError("truncated action header")
        action_type = buf.read_u16(offset)
        action_len_field = buf.read_u16(offset + 2)
        try:
            action_len = field_int(action_len_field)
        except ConcretizationError as exc:
            raise MessageParseError("action length field must be concrete: %s" % exc) from exc
        if action_len < 8 or action_len % 8 or offset + action_len > end:
            raise MessageParseError("invalid action length %d" % action_len)
        if isinstance(action_type, int):
            parser = _FIXED_ACTION_PARSERS.get(action_type)
            if parser is not None and action_len == 8:
                actions.append(parser(buf, offset))
            elif action_type == c.OFPAT_SET_DL_SRC and action_len == 16:
                from repro.openflow.match import _read_mac

                actions.append(ActionSetDlSrc(_read_mac(buf, offset + 4)))
            elif action_type == c.OFPAT_SET_DL_DST and action_len == 16:
                from repro.openflow.match import _read_mac

                actions.append(ActionSetDlDst(_read_mac(buf, offset + 4)))
            elif action_type == c.OFPAT_ENQUEUE and action_len == 16:
                actions.append(ActionEnqueue(buf.read_u16(offset + 4), buf.read_u32(offset + 12)))
            elif action_type == c.OFPAT_VENDOR and action_len >= 8:
                body = buf.read_bytes(offset + 8, action_len - 8)
                actions.append(ActionVendor(buf.read_u32(offset + 4),
                                            body.to_bytes() if body.is_concrete else b""))
            else:
                actions.append(RawAction(action_type, action_len,
                                         buf.read_u16(offset + 4), buf.read_u16(offset + 6)))
        else:
            actions.append(RawAction(action_type, action_len,
                                     buf.read_u16(offset + 4), buf.read_u16(offset + 6)))
        offset += action_len
    return actions
