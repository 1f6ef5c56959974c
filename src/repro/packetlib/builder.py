"""Convenience builders for the frames used as probes and payloads.

The test catalogue (§5, Table 1) uses two kinds of probes: a plain Ethernet
frame and a TCP/IPv4 frame.  Builders return :class:`SymBuffer` so both
concrete probes and (for the Table 5 "Symbolic Probe" variant) partially
symbolic probes are expressed with the same code.
"""

from __future__ import annotations

from repro.openflow import constants as c
from repro.packetlib.headers import (
    ArpHeader,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
    VlanTag,
)
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue

__all__ = [
    "build_ethernet_frame",
    "build_vlan_tcp_packet",
    "build_tcp_packet",
    "build_udp_packet",
    "build_arp_packet",
    "DEFAULT_SRC_MAC",
    "DEFAULT_DST_MAC",
    "DEFAULT_SRC_IP",
    "DEFAULT_DST_IP",
]

DEFAULT_SRC_MAC = 0x00_16_3E_00_00_01
DEFAULT_DST_MAC = 0x00_16_3E_00_00_02
DEFAULT_SRC_IP = 0x0A_00_00_01   # 10.0.0.1
DEFAULT_DST_IP = 0x0A_00_00_02   # 10.0.0.2


def build_ethernet_frame(dl_src: FieldValue = DEFAULT_SRC_MAC,
                         dl_dst: FieldValue = DEFAULT_DST_MAC,
                         dl_type: FieldValue = 0x88B5,
                         payload: bytes = b"\x00" * 46) -> SymBuffer:
    """A minimal Ethernet frame with an opaque payload (the "Eth probe")."""

    frame = EthernetHeader(dl_dst=dl_dst, dl_src=dl_src, dl_type=dl_type).pack()
    frame.write_bytes(payload)
    return frame


def build_tcp_packet(dl_src: FieldValue = DEFAULT_SRC_MAC,
                     dl_dst: FieldValue = DEFAULT_DST_MAC,
                     nw_src: FieldValue = DEFAULT_SRC_IP,
                     nw_dst: FieldValue = DEFAULT_DST_IP,
                     nw_tos: FieldValue = 0,
                     tp_src: FieldValue = 1234,
                     tp_dst: FieldValue = 80,
                     payload: bytes = b"") -> SymBuffer:
    """A TCP/IPv4/Ethernet frame (the standard probe of the FlowMod tests)."""

    tcp = TcpHeader(src_port=tp_src, dst_port=tp_dst).pack()
    total_length = Ipv4Header.LENGTH + len(tcp) + len(payload)
    ip = Ipv4Header(tos=nw_tos, total_length=total_length, protocol=c.IPPROTO_TCP,
                    src=nw_src, dst=nw_dst).pack()
    eth = EthernetHeader(dl_dst=dl_dst, dl_src=dl_src, dl_type=c.ETH_TYPE_IP).pack()
    frame = eth + ip + tcp
    frame.write_bytes(payload)
    return frame


def build_udp_packet(dl_src: FieldValue = DEFAULT_SRC_MAC,
                     dl_dst: FieldValue = DEFAULT_DST_MAC,
                     nw_src: FieldValue = DEFAULT_SRC_IP,
                     nw_dst: FieldValue = DEFAULT_DST_IP,
                     tp_src: FieldValue = 5353,
                     tp_dst: FieldValue = 53,
                     payload: bytes = b"") -> SymBuffer:
    """A UDP/IPv4/Ethernet frame."""

    udp = UdpHeader(src_port=tp_src, dst_port=tp_dst,
                    length=UdpHeader.LENGTH + len(payload)).pack()
    total_length = Ipv4Header.LENGTH + len(udp) + len(payload)
    ip = Ipv4Header(total_length=total_length, protocol=c.IPPROTO_UDP,
                    src=nw_src, dst=nw_dst).pack()
    eth = EthernetHeader(dl_dst=dl_dst, dl_src=dl_src, dl_type=c.ETH_TYPE_IP).pack()
    frame = eth + ip + udp
    frame.write_bytes(payload)
    return frame


def build_vlan_tcp_packet(vid: FieldValue, pcp: FieldValue = 0,
                          dl_src: FieldValue = DEFAULT_SRC_MAC,
                          dl_dst: FieldValue = DEFAULT_DST_MAC,
                          nw_src: FieldValue = DEFAULT_SRC_IP,
                          nw_dst: FieldValue = DEFAULT_DST_IP,
                          tp_src: FieldValue = 1234,
                          tp_dst: FieldValue = 80) -> SymBuffer:
    """A single-tagged 802.1Q TCP frame."""

    tcp = TcpHeader(src_port=tp_src, dst_port=tp_dst).pack()
    total_length = Ipv4Header.LENGTH + len(tcp)
    ip = Ipv4Header(total_length=total_length, protocol=c.IPPROTO_TCP,
                    src=nw_src, dst=nw_dst).pack()
    eth = EthernetHeader(dl_dst=dl_dst, dl_src=dl_src, dl_type=c.ETH_TYPE_VLAN).pack()
    tag = VlanTag(pcp=pcp, vid=vid, inner_type=c.ETH_TYPE_IP).pack()
    return eth + tag + ip + tcp


def build_arp_packet(dl_src: FieldValue = DEFAULT_SRC_MAC,
                     dl_dst: FieldValue = 0xFFFFFFFFFFFF,
                     spa: FieldValue = DEFAULT_SRC_IP,
                     tpa: FieldValue = DEFAULT_DST_IP,
                     opcode: FieldValue = 1) -> SymBuffer:
    """A broadcast ARP request frame."""

    eth = EthernetHeader(dl_dst=dl_dst, dl_src=dl_src, dl_type=c.ETH_TYPE_ARP).pack()
    arp = ArpHeader(opcode=opcode, sha=dl_src, spa=spa, tha=0, tpa=tpa).pack()
    frame = eth + arp
    frame.pad(max(0, 60 - len(frame)))
    return frame
