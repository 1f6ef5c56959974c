"""The agent ⇄ environment interface.

Agents do not talk to sockets directly; they talk to an
:class:`AgentContext`, which plays the role of the control channel plus the
data-plane interface (the Cloud9 POSIX model in the original prototype).  The
default :class:`RecordingContext` records every externally observable action
as a trace event; the harness wires it to the exploration engine's per-path
event log.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.events import (
    AgentCrashEvent,
    ControllerMessageEvent,
    DataplaneOutEvent,
    Event,
    ProbeDroppedEvent,
)
from repro.openflow.messages import OpenFlowMessage
from repro.wire.fields import FieldValue

__all__ = ["AgentContext", "RecordingContext"]


class AgentContext:
    """Abstract interface through which an agent observes and affects the world."""

    def send_to_controller(self, message: OpenFlowMessage) -> None:
        """Transmit an OpenFlow message on the control channel."""

        raise NotImplementedError

    def output_packet(self, port: FieldValue, frame_summary: str, length: int = 0) -> None:
        """Emit a packet on a data-plane port (or a logical port such as FLOOD)."""

        raise NotImplementedError

    def crash(self, reason: str) -> None:
        """Record that the agent process terminated abnormally."""

        raise NotImplementedError


class RecordingContext(AgentContext):
    """Context that appends normalizable events to a list (or a callback)."""

    def __init__(self, sink: Optional[Callable[[Event], None]] = None) -> None:
        self.events: List[Event] = []
        self._sink = sink
        #: Index of the input currently being processed; set by the harness.
        self.current_input_index: int = -1

    # -- wiring ---------------------------------------------------------------

    def _record(self, event: Event) -> None:
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    def set_input_index(self, index: int) -> None:
        self.current_input_index = index

    # -- AgentContext interface -------------------------------------------------

    def send_to_controller(self, message: OpenFlowMessage) -> None:
        self._record(ControllerMessageEvent(message=message,
                                            input_index=self.current_input_index))

    def output_packet(self, port: FieldValue, frame_summary: str, length: int = 0) -> None:
        self._record(DataplaneOutEvent(port=port, frame_summary=frame_summary,
                                       length=length, input_index=self.current_input_index))

    def crash(self, reason: str) -> None:
        self._record(AgentCrashEvent(reason=reason, input_index=self.current_input_index))

    def probe_dropped(self) -> None:
        """Record that a probe produced no output (called by the harness)."""

        self._record(ProbeDroppedEvent(input_index=self.current_input_index))

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)
