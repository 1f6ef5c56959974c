"""Externally observable events emitted by an agent under test.

An *output trace* (the thing SOFT compares across agents) is a sequence of
these events.  Only externally observable behaviour is recorded — OpenFlow
messages sent to the controller, packets emitted on data-plane ports, and the
agent process terminating — matching §3.3 of the paper.  Internal state is
never inspected directly; it is probed with concrete packets instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.openflow.messages import OpenFlowMessage
from repro.wire.fields import FieldValue, field_repr

__all__ = [
    "Event",
    "ControllerMessageEvent",
    "DataplaneOutEvent",
    "AgentCrashEvent",
    "ProbeDroppedEvent",
]


@dataclass
class Event:
    """Base class of trace events."""

    def normalized(self) -> Tuple:
        """A hashable, comparison-ready rendering of the event.

        Normalization removes data for which spurious differences are expected
        (transaction ids chosen by the agent, buffer ids, free-text strings in
        description stats) per §3.3 "Normalizing results".
        """

        raise NotImplementedError


@dataclass
class ControllerMessageEvent(Event):
    """The agent sent an OpenFlow message to the controller."""

    message: OpenFlowMessage
    #: Index of the input (message or probe) being processed when this was sent.
    input_index: int = -1

    def normalized(self) -> Tuple:
        from repro.core.trace import normalize_message

        return ("ctrl_msg", self.input_index, normalize_message(self.message))


@dataclass
class DataplaneOutEvent(Event):
    """The agent emitted a packet on a data-plane port."""

    port: FieldValue
    frame_summary: str
    length: int = 0
    input_index: int = -1

    def normalized(self) -> Tuple:
        return ("dp_out", self.input_index, field_repr(self.port), self.frame_summary, self.length)


@dataclass
class AgentCrashEvent(Event):
    """The agent terminated abnormally while processing an input."""

    reason: str = "crash"
    input_index: int = -1

    def normalized(self) -> Tuple:
        # The crash *reason* is implementation-specific wording; the observable
        # fact is that the agent died while processing this input.
        return ("crash", self.input_index)


@dataclass
class ProbeDroppedEvent(Event):
    """A probe packet produced no output at all (logged explicitly, §3.3)."""

    input_index: int = -1

    def normalized(self) -> Tuple:
        return ("probe_dropped", self.input_index)
