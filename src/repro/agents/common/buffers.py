"""Packet buffer pool.

Hardware and software switches keep packets that were sent to the controller
in numbered buffers so a later ``Packet Out``/``Flow Mod`` can refer to them
by ``buffer_id``.  The tests in the paper exercise the *unknown buffer id*
corner case, so the pool must distinguish "no buffer requested"
(``OFP_NO_BUFFER``) from "a buffer id that does not exist".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.wire.buffer import SymBuffer

__all__ = ["PacketBufferPool"]


class PacketBufferPool:
    """A bounded pool of buffered packets keyed by a 32-bit id."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._buffers: Dict[int, SymBuffer] = {}
        self._next_id = 1

    def store(self, frame: SymBuffer) -> int:
        """Store *frame* and return its buffer id (wraps around at capacity)."""

        buffer_id = self._next_id
        self._next_id = self._next_id % self.capacity + 1
        self._buffers[buffer_id] = frame
        return buffer_id

    def retrieve(self, buffer_id: int) -> Optional[SymBuffer]:
        """Return and remove the buffered frame, or None when unknown."""

        return self._buffers.pop(buffer_id, None)

    def peek(self, buffer_id: int) -> Optional[SymBuffer]:
        return self._buffers.get(buffer_id)

    def find(self, buffer_id) -> Optional[SymBuffer]:
        """Symbolic-aware lookup: compares *buffer_id* against every stored id.

        With a symbolic id this branches once per stored buffer, which is how
        the C implementations' linear bucket scan behaves under symbolic
        execution.  Returns None when no stored id can equal *buffer_id* on
        the current path.
        """

        from repro.wire.fields import field_equals

        for stored_id, frame in sorted(self._buffers.items()):
            if field_equals(buffer_id, stored_id, 32):
                return frame
        return None

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._buffers.clear()
