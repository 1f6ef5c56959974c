"""Statistics handling of the Open vSwitch-style agent.

Unlike the reference switch, OVS answers requests it cannot serve with an
explicit error: unknown statistics types yield ``OFPBRC_BAD_STAT``, vendor
statistics yield ``OFPBRC_BAD_VENDOR`` and malformed bodies yield
``OFPBRC_BAD_LEN`` — which is precisely how the paper's tooling noticed that
the reference switch stays silent (§5.1.2).
"""

from __future__ import annotations

from repro.openflow import constants as c
from repro.openflow.messages import StatsReply
from repro.wire.buffer import SymBuffer
from repro.wire.fields import field_repr

__all__ = ["OvsStatsMixin"]


class OvsStatsMixin:
    """Mixin providing ``handle_stats_request`` for the OVS-style agent."""

    DESC_MFR = "Nicira Networks"
    DESC_HW = "Open vSwitch"
    DESC_SW = "1.0.0"

    def handle_stats_request(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_STATS_REQUEST_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        stats_type = buf.read_u16(8)
        body_len = len(buf) - c.OFP_STATS_REQUEST_LEN

        if stats_type == c.OFPST_DESC:
            self._reply_desc(header)
        elif stats_type == c.OFPST_FLOW:
            if body_len < c.OFP_FLOW_STATS_REQUEST_LEN:
                self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
                return
            self._reply_flow(buf, header, aggregate=False)
        elif stats_type == c.OFPST_AGGREGATE:
            if body_len < c.OFP_FLOW_STATS_REQUEST_LEN:
                self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
                return
            self._reply_flow(buf, header, aggregate=True)
        elif stats_type == c.OFPST_TABLE:
            self._reply_table(header)
        elif stats_type == c.OFPST_PORT:
            if body_len < c.OFP_PORT_STATS_REQUEST_LEN:
                self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
                return
            self._reply_port(buf, header)
        elif stats_type == c.OFPST_QUEUE:
            if body_len < c.OFP_QUEUE_STATS_REQUEST_LEN:
                self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
                return
            self._reply_queue(buf, header)
        elif stats_type == c.OFPST_VENDOR:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_VENDOR)
        else:
            # Unknown statistics type: report it (the reference switch stays silent).
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_STAT)

    # -- individual reply builders ---------------------------------------------

    def _reply_desc(self, header) -> None:
        summary = "desc(mfr=%s,hw=%s,sw=%s)" % (self.DESC_MFR, self.DESC_HW, self.DESC_SW)
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_DESC, summary=summary))

    def _reply_flow(self, buf: SymBuffer, header, aggregate: bool) -> None:
        from repro.agents.common.flowtable import match_subsumes
        from repro.openflow.match import Match

        pattern = Match.unpack(buf, 12)
        out_port = buf.read_u16(54)
        selected = []
        for entry in self.flow_table.entries():
            if match_subsumes(pattern, entry.match):
                if out_port == c.OFPP_NONE or entry.outputs_to(out_port):
                    selected.append(entry)
        if aggregate:
            summary = "aggregate(flows=%d,packets=%d,bytes=%d)" % (
                len(selected),
                sum(e.packet_count for e in selected),
                sum(e.byte_count for e in selected),
            )
            self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_AGGREGATE, summary=summary))
            return
        rendered = ";".join(e.describe() for e in selected)
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_FLOW,
                             summary="flows[%s]" % rendered))

    def _reply_table(self, header) -> None:
        summary = "table(id=0,name=classifier,active=%d,max=%d)" % (
            len(self.flow_table), self.flow_table.capacity)
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_TABLE, summary=summary))

    def _reply_port(self, buf: SymBuffer, header) -> None:
        port_no = buf.read_u16(12)
        if port_no == c.OFPP_NONE:
            summary = "ports(all=%d)" % self.ports.count
        elif self.ports.contains(port_no):
            summary = "ports(single=%s)" % field_repr(port_no)
        else:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_EPERM)
            return
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_PORT, summary=summary))

    def _reply_queue(self, buf: SymBuffer, header) -> None:
        port_no = buf.read_u16(12)
        queue_id = buf.read_u32(16)
        summary = "queues(port=%s,queue=%s,count=0)" % (field_repr(port_no), field_repr(queue_id))
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_QUEUE, summary=summary))
