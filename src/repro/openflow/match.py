"""The OpenFlow 1.0 ``ofp_match`` structure.

A match describes which packets a flow entry applies to.  Fields may be
concrete integers or symbolic bit-vectors; the ``wildcards`` bitmap states
which fields are ignored.  Matching *semantics* (how an agent interprets the
wildcards, how it masks the IP prefixes, ...) live in the agent
implementations because that is precisely where the paper found behavioural
differences — this class only carries the data and the wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.openflow import constants as c
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, as_field, field_repr, is_symbolic_field

__all__ = ["Match", "MATCH_FIELD_WIDTHS"]

#: Width in bits of each match field (wire order).
MATCH_FIELD_WIDTHS = {
    "wildcards": 32,
    "in_port": 16,
    "dl_src": 48,
    "dl_dst": 48,
    "dl_vlan": 16,
    "dl_vlan_pcp": 8,
    "dl_type": 16,
    "nw_tos": 8,
    "nw_proto": 8,
    "nw_src": 32,
    "nw_dst": 32,
    "tp_src": 16,
    "tp_dst": 16,
}


@dataclass
class Match:
    """``ofp_match``: flow match fields plus the wildcard bitmap."""

    wildcards: FieldValue = c.OFPFW_ALL
    in_port: FieldValue = 0
    dl_src: FieldValue = 0
    dl_dst: FieldValue = 0
    dl_vlan: FieldValue = 0
    dl_vlan_pcp: FieldValue = 0
    dl_type: FieldValue = 0
    nw_tos: FieldValue = 0
    nw_proto: FieldValue = 0
    nw_src: FieldValue = 0
    nw_dst: FieldValue = 0
    tp_src: FieldValue = 0
    tp_dst: FieldValue = 0

    def __post_init__(self) -> None:
        for name, width in MATCH_FIELD_WIDTHS.items():
            setattr(self, name, as_field(getattr(self, name), width))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def wildcard_all(cls) -> "Match":
        """A match that matches every packet."""

        return cls(wildcards=c.OFPFW_ALL)

    @classmethod
    def exact_tcp(cls, in_port: int, dl_src: int, dl_dst: int, nw_src: int,
                  nw_dst: int, tp_src: int, tp_dst: int) -> "Match":
        """An exact match on a (VLAN-less) TCP flow — used by concrete tests."""

        return cls(
            wildcards=0,
            in_port=in_port,
            dl_src=dl_src,
            dl_dst=dl_dst,
            dl_vlan=c.OFP_VLAN_NONE,
            dl_vlan_pcp=0,
            dl_type=c.ETH_TYPE_IP,
            nw_tos=0,
            nw_proto=c.IPPROTO_TCP,
            nw_src=nw_src,
            nw_dst=nw_dst,
            tp_src=tp_src,
            tp_dst=tp_dst,
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u32(self.wildcards)
        buf.write_u16(self.in_port)
        buf.write_bytes(_mac_bytes(self.dl_src))
        buf.write_bytes(_mac_bytes(self.dl_dst))
        buf.write_u16(self.dl_vlan)
        buf.write_u8(self.dl_vlan_pcp)
        buf.pad(1)
        buf.write_u16(self.dl_type)
        buf.write_u8(self.nw_tos)
        buf.write_u8(self.nw_proto)
        buf.pad(2)
        buf.write_u32(self.nw_src)
        buf.write_u32(self.nw_dst)
        buf.write_u16(self.tp_src)
        buf.write_u16(self.tp_dst)
        assert len(buf) == c.OFP_MATCH_LEN
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int = 0) -> "Match":
        return cls(
            wildcards=buf.read_u32(offset),
            in_port=buf.read_u16(offset + 4),
            dl_src=_read_mac(buf, offset + 6),
            dl_dst=_read_mac(buf, offset + 12),
            dl_vlan=buf.read_u16(offset + 18),
            dl_vlan_pcp=buf.read_u8(offset + 20),
            dl_type=buf.read_u16(offset + 22),
            nw_tos=buf.read_u8(offset + 24),
            nw_proto=buf.read_u8(offset + 25),
            nw_src=buf.read_u32(offset + 28),
            nw_dst=buf.read_u32(offset + 32),
            tp_src=buf.read_u16(offset + 36),
            tp_dst=buf.read_u16(offset + 38),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def field_values(self) -> Dict[str, FieldValue]:
        """All fields as a name -> value dictionary (wire order)."""

        return {name: getattr(self, name) for name in MATCH_FIELD_WIDTHS}

    def has_symbolic_fields(self) -> bool:
        return any(is_symbolic_field(value) for value in self.field_values().values())

    def describe(self) -> str:
        """Stable textual rendering used by trace normalization.

        Symbolic fields are rendered as ``*`` so that traces do not split into
        one equivalence class per symbolic expression shape.
        """

        parts = []
        for name, value in self.field_values().items():
            rendered = "*" if is_symbolic_field(value) else field_repr(value)
            parts.append("%s=%s" % (name, rendered))
        return "match{%s}" % ",".join(parts)

    def copy(self) -> "Match":
        return Match(**self.field_values())


def _mac_bytes(value: FieldValue) -> SymBuffer:
    buf = SymBuffer()
    if isinstance(value, int):
        for shift in range(5, -1, -1):
            buf.write_u8((value >> (shift * 8)) & 0xFF)
        return buf
    from repro.symbex.expr import bv, extract

    expr = bv(value, 48)
    for shift in range(5, -1, -1):
        buf.write_u8(extract(expr, shift * 8 + 7, shift * 8))
    return buf


def _read_mac(buf: SymBuffer, offset: int) -> FieldValue:
    high = buf.read_u16(offset)
    low = buf.read_u32(offset + 2)
    if isinstance(high, int) and isinstance(low, int):
        return (high << 32) | low
    from repro.symbex.expr import bv, concat

    return concat(bv(high, 16), bv(low, 32))
