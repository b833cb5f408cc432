"""The history table: a bounded FIFO of recently received multicast packets.

Members serve gossip replies out of this table (paper section 4.4).  The
table is keyed by ``(source, sequence number)`` and evicts the oldest entry
when full.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.multicast.messages import MulticastData

MessageId = Tuple[int, int]


class HistoryTable:
    """Bounded FIFO buffer of the most recently received messages."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._messages: "OrderedDict[MessageId, MulticastData]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, message_id: MessageId) -> bool:
        return message_id in self._messages

    def __iter__(self) -> Iterator[MulticastData]:
        return iter(self._messages.values())

    def add(self, message: MulticastData) -> bool:
        """Store ``message``; returns False when it was already present."""
        key = message.message_id()
        if key in self._messages:
            return False
        self._messages[key] = message
        while len(self._messages) > self.capacity:
            self._messages.popitem(last=False)
            self.evictions += 1
        return True

    def get(self, message_id: MessageId) -> Optional[MulticastData]:
        """Return the stored message with ``message_id`` if still buffered."""
        return self._messages.get(message_id)

    def messages_at_or_after(self, source: int, seq: int) -> List[MulticastData]:
        """Messages from ``source`` with sequence number >= ``seq``, in
        sequence order.

        Used to answer the "expected sequence number" part of a gossip
        request: anything the responder holds that the initiator has not even
        seen announced yet.
        """
        found = [
            message
            for (msg_source, msg_seq), message in self._messages.items()
            if msg_source == source and msg_seq >= seq
        ]
        found.sort(key=lambda message: message.seq)
        return found

    def message_ids(self) -> List[MessageId]:
        """Identifiers of every buffered message, oldest first."""
        return list(self._messages.keys())
