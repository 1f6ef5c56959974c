"""The Modified Switch: the reference switch plus seven injected changes.

See :mod:`repro.agents.modified.mutations` for the catalogue.  The class
derives from :class:`~repro.agents.reference.agent.ReferenceSwitch` and
overrides exactly the code paths the mutations touch, the way the paper's
designated team members edited the C sources.
"""

from __future__ import annotations

from typing import Optional

from repro.agents.reference.agent import ReferenceSwitch
from repro.agents.registry import register_agent
from repro.openflow import constants as c
from repro.openflow.match import Match
from repro.packetlib.flowkey import FlowKey
from repro.wire.buffer import SymBuffer
from repro.wire.fields import FieldValue

__all__ = ["ModifiedSwitch"]


@register_agent(
    description="Reference switch with the seven injected §5.1.1 modifications.",
    vendor="paper §5.1.1 mutation study",
    tags=("paper", "mutations"),
)
class ModifiedSwitch(ReferenceSwitch):
    """Reference switch with the seven injected corner-case modifications."""

    NAME = "modified"

    #: Mutation 3: physical ports above this value are rejected in output actions.
    INJECTED_PORT_LIMIT = 16

    #: Mutation 5: upper bound applied to miss_send_len by SET_CONFIG.
    INJECTED_MISS_SEND_CAP = 64

    # -- Mutation 1 (undetectable): HELLO version-negotiation handling changed ----

    def handle_hello(self, buf: SymBuffer, header) -> None:
        """Reject any HELLO that carries negotiation elements after the header.

        SOFT completes a correct (bare, 8-byte) HELLO handshake before testing
        and never injects another HELLO, so this change is never exercised by
        its input sequences — the paper's first undetected modification.
        """

        if len(buf) > c.OFP_HEADER_LEN:
            self.send_error(header.xid, c.OFPET_HELLO_FAILED, c.OFPHFC_INCOMPATIBLE)

    # -- Mutation 2 (undetectable): no FLOW_REMOVED on idle expiry ----------------
    # Only timer-driven code expires entries, and symbolic execution never
    # fires a timer, so no input sequence reaches the changed path; the
    # agents model no timers at all (the paper's second undetected change).

    # -- Mutation 3: tighter port validation in output actions -------------------

    def _validate_output_port(self, port: FieldValue, xid: FieldValue) -> Optional[str]:
        outcome = super()._validate_output_port(port, xid)
        if outcome is not None:
            return outcome
        if port < c.OFPP_MAX:
            if port > self.INJECTED_PORT_LIMIT:
                self.send_error(xid, c.OFPET_BAD_ACTION, c.OFPBAC_BAD_OUT_PORT)
                return "injected_port_limit"
        return None

    # -- Mutation 4: different DESC statistics content ----------------------------

    DESC_HW = "Modified Reference Switch (injected)"

    # -- Mutation 5: SET_CONFIG clamps miss_send_len ------------------------------

    def handle_set_config(self, buf: SymBuffer, header) -> None:
        super().handle_set_config(buf, header)
        limit = self.miss_send_len
        if isinstance(limit, int):
            if limit > self.INJECTED_MISS_SEND_CAP:
                self.miss_send_len = self.INJECTED_MISS_SEND_CAP
        else:
            if limit > self.INJECTED_MISS_SEND_CAP:
                self.miss_send_len = self.INJECTED_MISS_SEND_CAP

    # -- Mutation 6: MODIFY of a missing flow is an error --------------------------

    def _flow_modify(self, match: Match, priority: FieldValue, actions, cookie,
                     flags, buffer_id, xid, strict: bool) -> None:
        targets = self.flow_table.matching_entries(match, strict=strict, priority=priority)
        if not targets:
            self.send_error(xid, c.OFPET_FLOW_MOD_FAILED, c.OFPFMFC_BAD_COMMAND)
            return
        for entry in targets:
            entry.actions = list(actions)
            entry.cookie = cookie
        self._apply_to_buffered_packet(buffer_id, actions)

    # -- Mutation 7: OFPP_FLOOD drops instead of flooding ---------------------------

    def execute_output(self, port: FieldValue, max_len: FieldValue, key: FlowKey,
                       in_port: FieldValue, frame: SymBuffer) -> bool:
        if port == c.OFPP_FLOOD:
            return False
        return super().execute_output(port, max_len, key, in_port, frame)
