"""The Reference Switch agent.

This models the behaviour of the OpenFlow 1.0.0 reference userspace switch
("Reference Switch", 55K LoC of C in the paper), including every quirk the
paper's evaluation reports:

* **No value validation, silent masking** — ``set_vlan_vid`` / ``set_vlan_pcp``
  / ``set_nw_tos`` arguments are not validated; the values are masked to the
  legal bit width when the action is applied (§5.1.2 "Packet dropped when
  action is invalid", Reference side).
* **in_port == out_port rejected** — a Flow Mod whose match pins the ingress
  port to the same port an output action targets is refused with
  ``OFPBAC_BAD_OUT_PORT`` (§5.1.2 "Forwarding a packet to an invalid port").
* **No maximum-port validation** — any port number below the reserved range is
  accepted and simply dropped at execution time if the port does not exist.
* **Errors not propagated** — an unknown ``buffer_id`` in Packet Out/Flow Mod
  and un-answerable statistics requests produce an internal error that never
  becomes an OpenFlow ERROR message (§5.1.2 "Lack of error messages",
  "Statistics requests silently ignored").
* **Crashes** — Packet Out with output to ``OFPP_CONTROLLER``, executing a
  ``set_vlan_vid`` action from a Packet Out, and a queue-config request for
  port 0 terminate the agent (§5.1.2 "OpenFlow agent terminates with an
  error").
* **Validation order** — the buffer id is resolved before actions are
  validated, so a message that is wrong in both ways produces no error at all.
* **Emergency flow entries supported; ``OFPP_NORMAL`` unsupported.**
"""

from __future__ import annotations

from typing import List, Optional

from repro.agents.common.base import OpenFlowAgent
from repro.agents.common.flowtable import FlowEntry
from repro.agents.reference.stats import ReferenceStatsMixin
from repro.agents.registry import register_agent
from repro.openflow import constants as c
from repro.openflow.actions import (
    Action,
    ActionEnqueue,
    ActionOutput,
    ActionSetVlanVid,
    RawAction,
)
from repro.openflow.match import Match
from repro.packetlib.flowkey import FlowKey, extract_flow_key
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue

__all__ = ["ReferenceSwitch"]


@register_agent(
    description="The OpenFlow 1.0 reference userspace switch, quirks included.",
    vendor="Stanford reference implementation (55K LoC of C in the paper)",
    tags=("paper", "table1"),
)
class ReferenceSwitch(ReferenceStatsMixin, OpenFlowAgent):
    """Reference OpenFlow 1.0 switch model."""

    NAME = "reference"

    # ------------------------------------------------------------------
    # Header validation
    # ------------------------------------------------------------------

    def validate_header(self, header, buf: SymBuffer) -> bool:
        """The reference switch only rejects lengths that cannot be right.

        A length field smaller than the fixed header or larger than what was
        actually received is an error; a length *shorter* than the received
        buffer is tolerated (the tail is ignored), unlike Open vSwitch.
        """

        if header.length < c.OFP_HEADER_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return False
        if header.length > len(buf):
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return False
        return True

    # ------------------------------------------------------------------
    # SET_CONFIG
    # ------------------------------------------------------------------

    def handle_set_config(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_SWITCH_CONFIG_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        flags = buf.read_u16(8)
        miss_send_len = buf.read_u16(10)
        # The reference switch keeps only the fragment-handling bits and stores
        # miss_send_len verbatim; no reply is generated.
        self.frag_flags = flags & c.OFPC_FRAG_MASK
        self.miss_send_len = miss_send_len

    # ------------------------------------------------------------------
    # PACKET_OUT
    # ------------------------------------------------------------------

    def handle_packet_out(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_PACKET_OUT_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        buffer_id, in_port, actions, data = self.parse_packet_out_fields(buf)

        # Reference order: the packet buffer is resolved *before* the actions
        # are validated.  An unknown buffer id makes the handler bail out, and
        # the internal error code is never turned into an OpenFlow ERROR.
        frame = data
        if buffer_id != c.OFP_NO_BUFFER:
            buffered = self.buffer_pool.find(buffer_id)
            if buffered is None:
                return  # silent drop: error not propagated (paper §5.1.2)
            frame = buffered

        if len(frame) < 14:
            # Nothing resembling an Ethernet frame to forward.
            return

        error = self._validate_packet_out_actions(actions, header.xid)
        if error is not None:
            return

        key = extract_flow_key(frame, in_port)
        self._in_packet_out = True
        try:
            self._execute_packet_out_actions(actions, key, in_port, frame)
        finally:
            self._in_packet_out = False

    def _validate_packet_out_actions(self, actions: List[Action], xid: FieldValue) -> Optional[str]:
        """Packet Out action validation, reference style (structure only).

        Field *values* (VLAN id, PCP, TOS) are deliberately not checked; they
        are masked when applied.  Returns a non-None marker when an error was
        sent and processing must stop.
        """

        for action in actions:
            if isinstance(action, RawAction):
                outcome = self._classify_raw_action(action, xid)
                if outcome is not None:
                    return outcome
            elif isinstance(action, (ActionOutput, ActionEnqueue)):
                outcome = self._validate_output_port(action.port, xid)
                if outcome is not None:
                    return outcome
            # All other concrete action types are accepted unchecked.
        return None

    def _classify_raw_action(self, action: RawAction, xid: FieldValue) -> Optional[str]:
        """Branch over a symbolic action type the way ``ofi_act_validate`` does."""

        kind = action.action_type
        if kind == c.OFPAT_OUTPUT:
            return self._validate_output_port(action.arg16_a, xid)
        if kind == c.OFPAT_SET_VLAN_VID:
            return None          # value not validated (masked at execution)
        if kind == c.OFPAT_SET_VLAN_PCP:
            return None          # value not validated
        if kind == c.OFPAT_STRIP_VLAN:
            return None
        if kind == c.OFPAT_SET_DL_SRC or kind == c.OFPAT_SET_DL_DST:
            return None
        if kind == c.OFPAT_SET_NW_SRC or kind == c.OFPAT_SET_NW_DST:
            return None
        if kind == c.OFPAT_SET_NW_TOS:
            return None          # value not validated
        if kind == c.OFPAT_SET_TP_SRC or kind == c.OFPAT_SET_TP_DST:
            return None
        if kind == c.OFPAT_ENQUEUE:
            return self._validate_output_port(action.arg16_a, xid)
        if kind == c.OFPAT_VENDOR:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_VENDOR)
            return "bad_vendor"
        self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_TYPE)
        return "bad_type"

    def _validate_output_port(self, port: FieldValue, xid: FieldValue) -> Optional[str]:
        """Reference port validation: only port 0 and NORMAL/NONE are refused."""

        if port == 0:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return "bad_port_zero"
        if port == c.OFPP_NORMAL:
            # The reference switch has no traditional forwarding path.
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return "normal_unsupported"
        if port == c.OFPP_NONE:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return "bad_port_none"
        # Anything else — including port numbers larger than the number of
        # physical ports — is accepted; non-existent ports drop at execution.
        return None

    def _execute_packet_out_actions(self, actions: List[Action], key: FlowKey,
                                    in_port: FieldValue, frame: SymBuffer) -> None:
        for action in actions:
            if isinstance(action, ActionOutput):
                self._packet_out_output(action.port, key, in_port, frame)
            elif isinstance(action, ActionSetVlanVid):
                # Executing a set-VLAN action on a Packet Out packet hits the
                # reference switch's unhandled code path and aborts the agent.
                self.abort("segfault while applying set_vlan_vid to a packet_out packet")
            elif isinstance(action, RawAction):
                self._execute_raw_packet_out_action(action, key, in_port, frame)
            else:
                self.apply_actions([action], key, in_port, frame)

    def _execute_raw_packet_out_action(self, action: RawAction, key: FlowKey,
                                       in_port: FieldValue, frame: SymBuffer) -> None:
        kind = action.action_type
        if kind == c.OFPAT_OUTPUT:
            self._packet_out_output(action.arg16_a, key, in_port, frame)
        elif kind == c.OFPAT_SET_VLAN_VID:
            self.abort("segfault while applying set_vlan_vid to a packet_out packet")
        elif kind == c.OFPAT_SET_VLAN_PCP:
            key.dl_vlan_pcp = self._mask_field(action.arg16_a, 0x07)
        elif kind == c.OFPAT_STRIP_VLAN:
            key.dl_vlan = c.OFP_VLAN_NONE
            key.dl_vlan_pcp = 0
        elif kind == c.OFPAT_SET_NW_TOS:
            key.nw_tos = self._mask_field(action.arg16_a, 0xFC)
        elif kind == c.OFPAT_SET_TP_SRC:
            key.tp_src = action.arg16_a
        elif kind == c.OFPAT_SET_TP_DST:
            key.tp_dst = action.arg16_a
        elif kind == c.OFPAT_ENQUEUE:
            self._packet_out_output(action.arg16_a, key, in_port, frame)
        else:
            # Remaining types rewrite fields wider than the 16-bit argument the
            # raw action carries; model them as applying the argument low bits.
            pass

    def _packet_out_output(self, port: FieldValue, key: FlowKey,
                           in_port: FieldValue, frame: SymBuffer) -> None:
        if port == c.OFPP_CONTROLLER:
            # Documented crash: Packet Out whose output port is the controller.
            self.abort("assertion failure while encapsulating packet_out to the controller")
        self.execute_output(port, 0, key, in_port, frame)

    # ------------------------------------------------------------------
    # Field rewriting (masking instead of validation)
    # ------------------------------------------------------------------

    @staticmethod
    def _mask_field(value: FieldValue, mask: int) -> FieldValue:
        if isinstance(value, int):
            return value & mask
        return value & mask

    def rewrite_field(self, key: FlowKey, name: str, value: FieldValue) -> None:
        """The reference switch forces out-of-range values into shape."""

        if name == "dl_vlan":
            value = self._mask_field(value, 0x0FFF)
        elif name == "dl_vlan_pcp":
            value = self._mask_field(value, 0x07)
        elif name == "nw_tos":
            value = self._mask_field(value, 0xFC)
        setattr(key, name, value)

    def execute_normal_output(self, key: FlowKey, in_port: FieldValue,
                              frame: SymBuffer) -> bool:
        """OFPP_NORMAL is not implemented by the reference switch: drop."""

        return False

    # ------------------------------------------------------------------
    # FLOW_MOD
    # ------------------------------------------------------------------

    def handle_flow_mod(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_FLOW_MOD_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        (match, cookie, command, idle_timeout, hard_timeout, priority,
         buffer_id, out_port, flags, actions) = self.parse_flow_mod_fields(buf)

        error = self._validate_flow_mod_actions(match, actions, header.xid)
        if error is not None:
            return

        if command == c.OFPFC_ADD:
            self._flow_add(match, priority, actions, cookie, idle_timeout,
                           hard_timeout, flags, buffer_id, header.xid)
        elif command == c.OFPFC_MODIFY:
            self._flow_modify(match, priority, actions, cookie, flags, buffer_id,
                              header.xid, strict=False)
        elif command == c.OFPFC_MODIFY_STRICT:
            self._flow_modify(match, priority, actions, cookie, flags, buffer_id,
                              header.xid, strict=True)
        elif command == c.OFPFC_DELETE:
            self._flow_delete(match, priority, out_port, strict=False)
        elif command == c.OFPFC_DELETE_STRICT:
            self._flow_delete(match, priority, out_port, strict=True)
        else:
            self.send_error(header.xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_BAD_COMMAND)

    def _validate_flow_mod_actions(self, match: Match, actions: List[Action],
                                   xid: FieldValue) -> Optional[str]:
        """Flow Mod action validation, including the in_port == out_port refusal."""

        for action in actions:
            port: Optional[FieldValue] = None
            if isinstance(action, (ActionOutput, ActionEnqueue)):
                port = action.port
            elif isinstance(action, RawAction):
                outcome = self._classify_raw_action(action, xid)
                if outcome is not None:
                    return outcome
                if action.action_type == c.OFPAT_OUTPUT or action.action_type == c.OFPAT_ENQUEUE:
                    port = action.arg16_a
            else:
                continue
            if port is None:
                continue
            outcome = self._validate_output_port(port, xid)
            if outcome is not None:
                return outcome
            # Reject rules that forward packets back to their ingress port:
            # "as no packets will ever be forwarded to this port" (§5.1.2).
            in_port_significant = True
            wildcards = match.wildcards
            if (wildcards & c.OFPFW_IN_PORT) != 0:
                in_port_significant = False
            if in_port_significant and port == match.in_port:
                self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
                return "out_port_equals_in_port"
        return None

    def _flow_add(self, match: Match, priority: FieldValue, actions: List[Action],
                  cookie: FieldValue, idle_timeout: FieldValue, hard_timeout: FieldValue,
                  flags: FieldValue, buffer_id: FieldValue, xid: FieldValue) -> None:
        emergency = (flags & c.OFPFF_EMERG) != 0
        if emergency:
            # Emergency entries must not carry timeouts (spec §4.6); the
            # reference switch enforces this.
            if idle_timeout != 0 or hard_timeout != 0:
                self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_BAD_EMERG_TIMEOUT)
                return
        if (flags & c.OFPFF_CHECK_OVERLAP) != 0:
            if self._has_overlap(match, priority):
                self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_OVERLAP)
                return
        if self.flow_table.is_full:
            self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_ALL_TABLES_FULL)
            return
        entry = FlowEntry(match=match, priority=priority, actions=list(actions),
                          cookie=cookie, idle_timeout=idle_timeout,
                          hard_timeout=hard_timeout, flags=flags,
                          emergency=bool(emergency))
        self.flow_table.add(entry)
        self._apply_to_buffered_packet(buffer_id, actions)

    def _has_overlap(self, match: Match, priority: FieldValue) -> bool:
        for entry in self.flow_table.entries():
            if not (entry.priority == priority):
                continue
            from repro.agents.common.flowtable import match_subsumes

            if match_subsumes(match, entry.match) or match_subsumes(entry.match, match):
                return True
        return False

    def _flow_modify(self, match: Match, priority: FieldValue, actions: List[Action],
                     cookie: FieldValue, flags: FieldValue, buffer_id: FieldValue,
                     xid: FieldValue, strict: bool) -> None:
        targets = self.flow_table.matching_entries(match, strict=strict, priority=priority)
        if not targets:
            # Per the 1.0 spec MODIFY of a non-existent flow behaves like ADD.
            self._flow_add(match, priority, actions, cookie, 0, 0, flags, buffer_id, xid)
            return
        for entry in targets:
            entry.actions = list(actions)
            entry.cookie = cookie
        self._apply_to_buffered_packet(buffer_id, actions)

    def _flow_delete(self, match: Match, priority: FieldValue,
                     out_port: FieldValue, strict: bool) -> None:
        targets = self.flow_table.matching_entries(match, strict=strict,
                                                   priority=priority, out_port=out_port)
        for entry in targets:
            self.flow_table.remove(entry)
            if (entry.flags & c.OFPFF_SEND_FLOW_REM) != 0:
                from repro.openflow.messages import FlowRemoved

                self.send(FlowRemoved(match=entry.match, cookie=entry.cookie,
                                      priority=entry.priority, reason=c.OFPRR_DELETE))

    def _apply_to_buffered_packet(self, buffer_id: FieldValue, actions: List[Action]) -> None:
        """Apply the new flow's actions to the buffered packet, if one was named.

        When the buffer id does not exist the reference switch's handler
        produces an internal error code that is never sent to the controller:
        the message is otherwise processed (the flow stays installed) and no
        actions are applied to any packet.
        """

        if buffer_id == c.OFP_NO_BUFFER:
            return
        frame = self.buffer_pool.find(buffer_id)
        if frame is None:
            return  # silent: error not propagated (paper §5.1.2)
        key = extract_flow_key(frame, 0)
        self.apply_actions(actions, key, 0, frame)

    # ------------------------------------------------------------------
    # QUEUE_GET_CONFIG_REQUEST
    # ------------------------------------------------------------------

    def handle_queue_get_config_request(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_QUEUE_GET_CONFIG_REQUEST_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        port = buf.read_u16(8)
        if port == 0:
            # Documented crash: queue configuration request for port 0 walks a
            # NULL port structure.
            self.abort("memory error while looking up queues of port 0")
        if self.ports.contains(port):
            from repro.openflow.messages import QueueGetConfigReply

            self.send(QueueGetConfigReply(xid=header.xid, port=port, queues=[]))
            return
        self.send_error(header.xid, c.OFPET_QUEUE_OP_FAILED, c.OFPQOFC_BAD_PORT)
