"""Statistics handling of the Reference Switch.

The defining quirk (§5.1.2 "Statistics requests silently ignored"): when the
switch cannot answer a request — unknown statistics type, vendor statistics,
or a request body too short to parse — the handler's internal error code is
never converted into an OpenFlow ERROR message, so the controller simply gets
no response.
"""

from __future__ import annotations

from repro.openflow import constants as c
from repro.openflow.messages import StatsReply
from repro.wire.buffer import SymBuffer
from repro.wire.fields import field_repr

__all__ = ["ReferenceStatsMixin"]


class ReferenceStatsMixin:
    """Mixin providing ``handle_stats_request`` for the Reference Switch."""

    DESC_MFR = "Stanford University"
    DESC_HW = "Reference Userspace Switch"
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
                return  # internal error, never propagated
            self._reply_flow(buf, header, aggregate=False)
        elif stats_type == c.OFPST_AGGREGATE:
            if body_len < c.OFP_FLOW_STATS_REQUEST_LEN:
                return  # internal error, never propagated
            self._reply_flow(buf, header, aggregate=True)
        elif stats_type == c.OFPST_TABLE:
            self._reply_table(header)
        elif stats_type == c.OFPST_PORT:
            if body_len < c.OFP_PORT_STATS_REQUEST_LEN:
                return  # internal error, never propagated
            self._reply_port(buf, header)
        elif stats_type == c.OFPST_QUEUE:
            if body_len < c.OFP_QUEUE_STATS_REQUEST_LEN:
                return  # internal error, never propagated
            self._reply_queue(buf, header)
        else:
            # Unknown statistics type (including vendor statistics): the
            # handler returns an error code that is never sent on the wire.
            return

    # -- individual reply builders ---------------------------------------------

    def _reply_desc(self, header) -> None:
        summary = "desc(mfr=%s,hw=%s,sw=%s)" % (self.DESC_MFR, self.DESC_HW, self.DESC_SW)
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_DESC, summary=summary))

    def _reply_flow(self, buf: SymBuffer, header, aggregate: bool) -> None:
        from repro.agents.common.flowtable import match_subsumes
        from repro.openflow.match import Match

        pattern = Match.unpack(buf, 12)
        out_port = buf.read_u16(12 + 42)
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
            return  # unknown port: internal error, never propagated
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_PORT, summary=summary))

    def _reply_queue(self, buf: SymBuffer, header) -> None:
        port_no = buf.read_u16(12)
        queue_id = buf.read_u32(16)
        summary = "queues(port=%s,queue=%s,count=0)" % (field_repr(port_no), field_repr(queue_id))
        self.send(StatsReply(xid=header.xid, stats_type=c.OFPST_QUEUE, summary=summary))
