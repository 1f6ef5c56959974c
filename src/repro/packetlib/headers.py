"""Packet header structures (Ethernet, 802.1Q, ARP, IPv4, ICMP, TCP, UDP).

Checksums are modelled as constants (zero) on both the build and the parse
side, mirroring the paper's simplification of checksum functions in the
Cloud9 environment model (§4.1): reversing checksums is what constraint
solvers are worst at, and no agent behaviour under test depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PacketParseError
from repro.openflow import constants as c
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, as_field, field_repr

__all__ = [
    "EthernetHeader",
    "VlanTag",
    "ArpHeader",
    "Ipv4Header",
    "IcmpHeader",
    "TcpHeader",
    "UdpHeader",
]


def _write_mac(buf: SymBuffer, value: FieldValue) -> None:
    from repro.openflow.match import _mac_bytes

    buf.write_bytes(_mac_bytes(value))


def _read_mac(buf: SymBuffer, offset: int) -> FieldValue:
    from repro.openflow.match import _read_mac

    return _read_mac(buf, offset)


@dataclass
class EthernetHeader:
    """The 14-byte Ethernet II header."""

    dl_dst: FieldValue = 0
    dl_src: FieldValue = 0
    dl_type: FieldValue = c.ETH_TYPE_IP

    LENGTH = 14

    def __post_init__(self) -> None:
        self.dl_dst = as_field(self.dl_dst, 48)
        self.dl_src = as_field(self.dl_src, 48)
        self.dl_type = as_field(self.dl_type, 16)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        _write_mac(buf, self.dl_dst)
        _write_mac(buf, self.dl_src)
        buf.write_u16(self.dl_type)
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int = 0) -> "EthernetHeader":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for an Ethernet header")
        return cls(
            dl_dst=_read_mac(buf, offset),
            dl_src=_read_mac(buf, offset + 6),
            dl_type=buf.read_u16(offset + 12),
        )

    def describe(self) -> str:
        return "eth(dst=%s,src=%s,type=%s)" % (
            field_repr(self.dl_dst), field_repr(self.dl_src), field_repr(self.dl_type))


@dataclass
class VlanTag:
    """A single 802.1Q tag (TPID is written by the Ethernet builder)."""

    pcp: FieldValue = 0
    vid: FieldValue = 0
    inner_type: FieldValue = c.ETH_TYPE_IP

    LENGTH = 4

    def __post_init__(self) -> None:
        self.pcp = as_field(self.pcp, 8)
        self.vid = as_field(self.vid, 16)
        self.inner_type = as_field(self.inner_type, 16)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        if isinstance(self.pcp, int) and isinstance(self.vid, int):
            tci = ((self.pcp & 0x07) << 13) | (self.vid & 0x0FFF)
            buf.write_u16(tci)
        else:
            from repro.symbex.expr import bv

            tci = (bv(self.pcp, 16) << 13) | (bv(self.vid, 16) & 0x0FFF)
            buf.write_u16(tci)
        buf.write_u16(self.inner_type)
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "VlanTag":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for a VLAN tag")
        tci = buf.read_u16(offset)
        if isinstance(tci, int):
            pcp = (tci >> 13) & 0x07
            vid = tci & 0x0FFF
        else:
            pcp = (tci >> 13) & 0x07
            vid = tci & 0x0FFF
        return cls(pcp=pcp, vid=vid, inner_type=buf.read_u16(offset + 2))

    def describe(self) -> str:
        return "vlan(vid=%s,pcp=%s)" % (field_repr(self.vid), field_repr(self.pcp))


@dataclass
class ArpHeader:
    """An ARP request/reply for IPv4 over Ethernet."""

    opcode: FieldValue = 1
    sha: FieldValue = 0
    spa: FieldValue = 0
    tha: FieldValue = 0
    tpa: FieldValue = 0

    LENGTH = 28

    def __post_init__(self) -> None:
        self.opcode = as_field(self.opcode, 16)
        self.sha = as_field(self.sha, 48)
        self.spa = as_field(self.spa, 32)
        self.tha = as_field(self.tha, 48)
        self.tpa = as_field(self.tpa, 32)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(1)                # hardware type: Ethernet
        buf.write_u16(c.ETH_TYPE_IP)    # protocol type: IPv4
        buf.write_u8(6)
        buf.write_u8(4)
        buf.write_u16(self.opcode)
        _write_mac(buf, self.sha)
        buf.write_u32(self.spa)
        _write_mac(buf, self.tha)
        buf.write_u32(self.tpa)
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "ArpHeader":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for an ARP header")
        return cls(
            opcode=buf.read_u16(offset + 6),
            sha=_read_mac(buf, offset + 8),
            spa=buf.read_u32(offset + 14),
            tha=_read_mac(buf, offset + 18),
            tpa=buf.read_u32(offset + 24),
        )

    def describe(self) -> str:
        return "arp(op=%s,spa=%s,tpa=%s)" % (
            field_repr(self.opcode), field_repr(self.spa), field_repr(self.tpa))


@dataclass
class Ipv4Header:
    """A 20-byte (no options) IPv4 header."""

    tos: FieldValue = 0
    total_length: FieldValue = 0
    ttl: FieldValue = 64
    protocol: FieldValue = c.IPPROTO_TCP
    src: FieldValue = 0
    dst: FieldValue = 0

    LENGTH = 20

    def __post_init__(self) -> None:
        self.tos = as_field(self.tos, 8)
        self.total_length = as_field(self.total_length, 16)
        self.ttl = as_field(self.ttl, 8)
        self.protocol = as_field(self.protocol, 8)
        self.src = as_field(self.src, 32)
        self.dst = as_field(self.dst, 32)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u8(0x45)              # version 4, IHL 5
        buf.write_u8(self.tos)
        buf.write_u16(self.total_length)
        buf.write_u16(0)                # identification
        buf.write_u16(0)                # flags / fragment offset
        buf.write_u8(self.ttl)
        buf.write_u8(self.protocol)
        buf.write_u16(0)                # checksum modelled as zero
        buf.write_u32(self.src)
        buf.write_u32(self.dst)
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "Ipv4Header":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for an IPv4 header")
        return cls(
            tos=buf.read_u8(offset + 1),
            total_length=buf.read_u16(offset + 2),
            ttl=buf.read_u8(offset + 8),
            protocol=buf.read_u8(offset + 9),
            src=buf.read_u32(offset + 12),
            dst=buf.read_u32(offset + 16),
        )

    def describe(self) -> str:
        return "ipv4(src=%s,dst=%s,proto=%s,tos=%s)" % (
            field_repr(self.src), field_repr(self.dst),
            field_repr(self.protocol), field_repr(self.tos))


@dataclass
class IcmpHeader:
    """An 8-byte ICMP header (echo style)."""

    icmp_type: FieldValue = 8
    code: FieldValue = 0

    LENGTH = 8

    def __post_init__(self) -> None:
        self.icmp_type = as_field(self.icmp_type, 8)
        self.code = as_field(self.code, 8)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u8(self.icmp_type)
        buf.write_u8(self.code)
        buf.write_u16(0)  # checksum modelled as zero
        buf.write_u32(0)  # rest of header
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "IcmpHeader":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for an ICMP header")
        return cls(icmp_type=buf.read_u8(offset), code=buf.read_u8(offset + 1))

    def describe(self) -> str:
        return "icmp(type=%s,code=%s)" % (field_repr(self.icmp_type), field_repr(self.code))


@dataclass
class TcpHeader:
    """A 20-byte (no options) TCP header."""

    src_port: FieldValue = 0
    dst_port: FieldValue = 0
    seq: FieldValue = 0
    ack: FieldValue = 0
    flags: FieldValue = 0x02  # SYN
    window: FieldValue = 0xFFFF

    LENGTH = 20

    def __post_init__(self) -> None:
        self.src_port = as_field(self.src_port, 16)
        self.dst_port = as_field(self.dst_port, 16)
        self.seq = as_field(self.seq, 32)
        self.ack = as_field(self.ack, 32)
        self.flags = as_field(self.flags, 8)
        self.window = as_field(self.window, 16)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.src_port)
        buf.write_u16(self.dst_port)
        buf.write_u32(self.seq)
        buf.write_u32(self.ack)
        buf.write_u8(0x50)              # data offset 5 words
        buf.write_u8(self.flags)
        buf.write_u16(self.window)
        buf.write_u16(0)                # checksum modelled as zero
        buf.write_u16(0)                # urgent pointer
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "TcpHeader":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for a TCP header")
        return cls(
            src_port=buf.read_u16(offset),
            dst_port=buf.read_u16(offset + 2),
            seq=buf.read_u32(offset + 4),
            ack=buf.read_u32(offset + 8),
            flags=buf.read_u8(offset + 13),
            window=buf.read_u16(offset + 14),
        )

    def describe(self) -> str:
        return "tcp(src=%s,dst=%s)" % (field_repr(self.src_port), field_repr(self.dst_port))


@dataclass
class UdpHeader:
    """An 8-byte UDP header."""

    src_port: FieldValue = 0
    dst_port: FieldValue = 0
    length: FieldValue = 8

    LENGTH = 8

    def __post_init__(self) -> None:
        self.src_port = as_field(self.src_port, 16)
        self.dst_port = as_field(self.dst_port, 16)
        self.length = as_field(self.length, 16)

    def pack(self) -> SymBuffer:
        buf = SymBuffer()
        buf.write_u16(self.src_port)
        buf.write_u16(self.dst_port)
        buf.write_u16(self.length)
        buf.write_u16(0)  # checksum modelled as zero
        return buf

    @classmethod
    def unpack(cls, buf: SymBuffer, offset: int) -> "UdpHeader":
        if len(buf) - offset < cls.LENGTH:
            raise PacketParseError("frame too short for a UDP header")
        return cls(
            src_port=buf.read_u16(offset),
            dst_port=buf.read_u16(offset + 2),
            length=buf.read_u16(offset + 4),
        )

    def describe(self) -> str:
        return "udp(src=%s,dst=%s)" % (field_repr(self.src_port), field_repr(self.dst_port))
