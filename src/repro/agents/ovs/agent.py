"""The Open vSwitch-style agent.

This models the externally observable behaviour of Open vSwitch 1.0.0 ("Open
vSwitch", 80K LoC of C in the paper) as reported by the paper's evaluation:

* **Strict value validation with silent message drop** — ``set_vlan_vid``
  values must fit in 12 bits, ``set_vlan_pcp`` in 3 bits, and the two ECN bits
  of ``set_nw_tos`` must be zero.  A Packet Out or Flow Mod carrying an action
  that fails these checks is silently ignored as a whole (§5.1.2 "Packet
  dropped when action is invalid", OVS side).
* **Maximum-port validation** — an output action naming a port above the
  configured maximum is rejected immediately with ``OFPBAC_BAD_OUT_PORT``.
* **in_port == out_port accepted** — such a rule is installed and matching
  packets are dropped at forwarding time.
* **Unknown buffer ids produce an error** — ``OFPBRC_BUFFER_UNKNOWN`` — but a
  Flow Mod naming one still installs its flow.
* **Unknown/vendor statistics requests produce an error** (``OFPBRC_BAD_STAT``
  / ``OFPBRC_BAD_VENDOR``).
* **``OFPP_NORMAL`` supported; emergency flow entries not supported.**
* No crash conditions: the three reference-switch crashes are handled cleanly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.agents.common.base import OpenFlowAgent
from repro.agents.common.flowtable import FlowEntry
from repro.agents.ovs.stats import OvsStatsMixin
from repro.agents.registry import register_agent
from repro.openflow import constants as c
from repro.openflow.actions import (
    Action,
    ActionEnqueue,
    ActionOutput,
    ActionSetNwTos,
    ActionSetVlanPcp,
    ActionSetVlanVid,
    RawAction,
)
from repro.openflow.match import Match
from repro.packetlib.flowkey import FlowKey, extract_flow_key
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue, field_equals

__all__ = ["OpenVSwitchAgent"]


@register_agent(
    description="Open vSwitch 1.0.0 behaviour: strict validation, silent drops.",
    vendor="Open vSwitch 1.0.0 (80K LoC of C in the paper)",
    tags=("paper", "table1"),
)
class OpenVSwitchAgent(OvsStatsMixin, OpenFlowAgent):
    """Open vSwitch 1.0.0 behavioural model."""

    NAME = "ovs"

    #: The "configurable maximum" port number accepted in output actions.
    MAX_OUTPUT_PORT = 255

    # ------------------------------------------------------------------
    # Header validation
    # ------------------------------------------------------------------

    def validate_header(self, header, buf: SymBuffer) -> bool:
        """OVS insists that the length field matches the received byte count."""

        if header.length != len(buf):
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return False
        return True

    def handle_unexpected_type(self, buf: SymBuffer, header) -> None:
        """Switch-to-controller types are logged and dropped without an error."""

    # ------------------------------------------------------------------
    # SET_CONFIG
    # ------------------------------------------------------------------

    def handle_set_config(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_SWITCH_CONFIG_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        flags = buf.read_u16(8)
        miss_send_len = buf.read_u16(10)
        self.frag_flags = flags & c.OFPC_FRAG_MASK
        self.miss_send_len = miss_send_len

    # ------------------------------------------------------------------
    # Action validation (strict, OVS style)
    # ------------------------------------------------------------------

    _SILENT_DROP = "silent_drop"
    _ERROR_SENT = "error_sent"

    def _validate_actions(self, actions: List[Action], xid: FieldValue,
                          for_flow_mod: bool) -> Optional[str]:
        """Validate an action list; returns None when everything is acceptable.

        Returns ``_ERROR_SENT`` when an OpenFlow error was emitted and
        ``_SILENT_DROP`` when the message must be ignored without any error
        (the strict value checks).
        """

        for action in actions:
            if isinstance(action, ActionOutput) or isinstance(action, ActionEnqueue):
                outcome = self._validate_output_port(action.port, xid)
                if outcome is not None:
                    return outcome
            elif isinstance(action, ActionSetVlanVid):
                if action.vlan_vid > 0x0FFF:
                    return self._SILENT_DROP
            elif isinstance(action, ActionSetVlanPcp):
                if action.vlan_pcp > 0x07:
                    return self._SILENT_DROP
            elif isinstance(action, ActionSetNwTos):
                if (action.nw_tos & 0x03) != 0:
                    return self._SILENT_DROP
            elif isinstance(action, RawAction):
                outcome = self._validate_raw_action(action, xid)
                if outcome is not None:
                    return outcome
        return None

    def _validate_raw_action(self, action: RawAction, xid: FieldValue) -> Optional[str]:
        kind = action.action_type
        if kind == c.OFPAT_OUTPUT:
            return self._validate_output_port(action.arg16_a, xid)
        if kind == c.OFPAT_SET_VLAN_VID:
            if action.arg16_a > 0x0FFF:
                return self._SILENT_DROP
            return None
        if kind == c.OFPAT_SET_VLAN_PCP:
            if action.arg16_a > 0x07:
                return self._SILENT_DROP
            return None
        if kind == c.OFPAT_STRIP_VLAN:
            return None
        if kind == c.OFPAT_SET_DL_SRC or kind == c.OFPAT_SET_DL_DST:
            return None
        if kind == c.OFPAT_SET_NW_SRC or kind == c.OFPAT_SET_NW_DST:
            return None
        if kind == c.OFPAT_SET_NW_TOS:
            if (action.arg16_a & 0x03) != 0:
                return self._SILENT_DROP
            return None
        if kind == c.OFPAT_SET_TP_SRC or kind == c.OFPAT_SET_TP_DST:
            return None
        if kind == c.OFPAT_ENQUEUE:
            outcome = self._validate_output_port(action.arg16_a, xid)
            if outcome is not None:
                return outcome
            return None
        if kind == c.OFPAT_VENDOR:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_VENDOR)
            return self._ERROR_SENT
        self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_TYPE)
        return self._ERROR_SENT

    def _validate_output_port(self, port: FieldValue, xid: FieldValue) -> Optional[str]:
        """OVS port validation: reserved ports are fine, 0 and too-large are not."""

        if port == 0:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return self._ERROR_SENT
        if port == c.OFPP_NONE:
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return self._ERROR_SENT
        if port >= c.OFPP_MAX:
            # The reserved range (IN_PORT, TABLE, NORMAL, FLOOD, ALL,
            # CONTROLLER, LOCAL) is accepted.
            return None
        if port > self.MAX_OUTPUT_PORT:
            # Output port greater than the configurable maximum: rejected now.
            self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
            return self._ERROR_SENT
        return None

    # ------------------------------------------------------------------
    # PACKET_OUT
    # ------------------------------------------------------------------

    def handle_packet_out(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_PACKET_OUT_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        buffer_id, in_port, actions, data = self.parse_packet_out_fields(buf)

        # OVS order: actions are validated before the buffer id is resolved.
        outcome = self._validate_actions(actions, header.xid, for_flow_mod=False)
        if outcome is not None:
            return

        frame = data
        if buffer_id != c.OFP_NO_BUFFER:
            buffered = self.buffer_pool.find(buffer_id)
            if buffered is None:
                self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BUFFER_UNKNOWN)
                return
            frame = buffered

        if len(frame) < 14:
            return

        key = extract_flow_key(frame, in_port)
        self._in_packet_out = True
        try:
            self._execute_actions_with_raw(actions, key, in_port, frame)
        finally:
            self._in_packet_out = False

    def _execute_actions_with_raw(self, actions: List[Action], key: FlowKey,
                                  in_port: FieldValue, frame: SymBuffer) -> bool:
        produced = False
        for action in actions:
            if isinstance(action, RawAction):
                produced = self._execute_raw_action(action, key, in_port, frame) or produced
            else:
                produced = self.apply_actions([action], key, in_port, frame) or produced
        return produced

    def _execute_raw_action(self, action: RawAction, key: FlowKey,
                            in_port: FieldValue, frame: SymBuffer) -> bool:
        kind = action.action_type
        if kind == c.OFPAT_OUTPUT:
            return self.execute_output(action.arg16_a, action.arg16_b, key, in_port, frame)
        if kind == c.OFPAT_SET_VLAN_VID:
            key.dl_vlan = action.arg16_a
            return False
        if kind == c.OFPAT_SET_VLAN_PCP:
            key.dl_vlan_pcp = action.arg16_a
            return False
        if kind == c.OFPAT_STRIP_VLAN:
            key.dl_vlan = c.OFP_VLAN_NONE
            key.dl_vlan_pcp = 0
            return False
        if kind == c.OFPAT_SET_NW_TOS:
            key.nw_tos = action.arg16_a
            return False
        if kind == c.OFPAT_SET_TP_SRC:
            key.tp_src = action.arg16_a
            return False
        if kind == c.OFPAT_SET_TP_DST:
            key.tp_dst = action.arg16_a
            return False
        if kind == c.OFPAT_ENQUEUE:
            return self.execute_output(action.arg16_a, 0, key, in_port, frame)
        return False

    def execute_raw_action(self, action: Action, key: FlowKey,
                           in_port: FieldValue, frame: SymBuffer) -> bool:
        if isinstance(action, RawAction):
            return self._execute_raw_action(action, key, in_port, frame)
        return False

    # ------------------------------------------------------------------
    # Forwarding behaviour differences
    # ------------------------------------------------------------------

    def execute_output(self, port: FieldValue, max_len: FieldValue, key: FlowKey,
                       in_port: FieldValue, frame: SymBuffer) -> bool:
        # OVS never forwards a packet back out of its ingress port unless the
        # rule explicitly uses OFPP_IN_PORT; rules that name the ingress port
        # are accepted at installation time and simply drop here.
        if isinstance(port, int) and port < c.OFPP_MAX or not isinstance(port, int):
            if port != c.OFPP_IN_PORT and field_equals(port, in_port, 16):
                return False
        return super().execute_output(port, max_len, key, in_port, frame)

    def execute_normal_output(self, key: FlowKey, in_port: FieldValue,
                              frame: SymBuffer) -> bool:
        """OVS bridges the packet through its traditional L2 path."""

        self.output_packet("NORMAL", key.describe(), len(frame))
        return True

    # ------------------------------------------------------------------
    # FLOW_MOD
    # ------------------------------------------------------------------

    def handle_flow_mod(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_FLOW_MOD_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        (match, cookie, command, idle_timeout, hard_timeout, priority,
         buffer_id, out_port, flags, actions) = self.parse_flow_mod_fields(buf)

        outcome = self._validate_actions(actions, header.xid, for_flow_mod=True)
        if outcome is not None:
            return

        if (flags & c.OFPFF_EMERG) != 0:
            # Open vSwitch 1.0.0 does not implement emergency flow entries.
            self.send_error(header.xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_UNSUPPORTED)
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

    def _flow_add(self, match: Match, priority: FieldValue, actions: List[Action],
                  cookie: FieldValue, idle_timeout: FieldValue, hard_timeout: FieldValue,
                  flags: FieldValue, buffer_id: FieldValue, xid: FieldValue) -> None:
        if (flags & c.OFPFF_CHECK_OVERLAP) != 0:
            if self._has_overlap(match, priority):
                self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_OVERLAP)
                return
        if self.flow_table.is_full:
            self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_ALL_TABLES_FULL)
            return
        entry = FlowEntry(match=match, priority=priority, actions=list(actions),
                          cookie=cookie, idle_timeout=idle_timeout,
                          hard_timeout=hard_timeout, flags=flags, emergency=False)
        self.flow_table.add(entry)
        # Unlike the reference switch, an unknown buffer id is reported — but
        # only after the flow has been installed.
        self._apply_to_buffered_packet(buffer_id, actions, xid)

    def _has_overlap(self, match: Match, priority: FieldValue) -> bool:
        from repro.agents.common.flowtable import match_subsumes

        for entry in self.flow_table.entries():
            if not (entry.priority == priority):
                continue
            if match_subsumes(match, entry.match) or match_subsumes(entry.match, match):
                return True
        return False

    def _flow_modify(self, match: Match, priority: FieldValue, actions: List[Action],
                     cookie: FieldValue, flags: FieldValue, buffer_id: FieldValue,
                     xid: FieldValue, strict: bool) -> None:
        targets = self.flow_table.matching_entries(match, strict=strict, priority=priority)
        if not targets:
            self._flow_add(match, priority, actions, cookie, 0, 0, flags, buffer_id, xid)
            return
        for entry in targets:
            entry.actions = list(actions)
            entry.cookie = cookie
        self._apply_to_buffered_packet(buffer_id, actions, xid)

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

    def _apply_to_buffered_packet(self, buffer_id: FieldValue, actions: List[Action],
                                  xid: FieldValue) -> None:
        if buffer_id == c.OFP_NO_BUFFER:
            return
        frame = self.buffer_pool.find(buffer_id)
        if frame is None:
            # The flow stays installed; the controller is told about the buffer.
            self.send_error(xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BUFFER_UNKNOWN)
            return
        key = extract_flow_key(frame, 0)
        self._execute_actions_with_raw(actions, key, 0, frame)

    # ------------------------------------------------------------------
    # QUEUE_GET_CONFIG_REQUEST
    # ------------------------------------------------------------------

    def handle_queue_get_config_request(self, buf: SymBuffer, header) -> None:
        if len(buf) < c.OFP_QUEUE_GET_CONFIG_REQUEST_LEN:
            self.send_error(header.xid, c.OFPET_BAD_REQUEST, c.OFPBRC_BAD_LEN)
            return
        port = buf.read_u16(8)
        if port == 0:
            self.send_error(header.xid, c.OFPET_QUEUE_OP_FAILED, c.OFPQOFC_BAD_PORT)
            return
        if self.ports.contains(port):
            from repro.openflow.messages import QueueGetConfigReply

            self.send(QueueGetConfigReply(xid=header.xid, port=port, queues=[]))
            return
        self.send_error(header.xid, c.OFPET_QUEUE_OP_FAILED, c.OFPQOFC_BAD_PORT)
