"""The lost table: which messages does this member believe it is missing?

Per the paper (section 4.4) a member keeps, for every multicast source, the
next expected sequence number; whenever a message arrives with a larger
sequence number, the gap is recorded as lost.  The table is bounded (200
entries in the paper); when full, the *oldest* losses are forgotten first
because they are also the least likely to still be recoverable from anyone's
history table.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Tuple

MessageId = Tuple[int, int]

#: Lost messages tracked per member (200 in the paper).
LOST_TABLE_SIZE = 200
#: The sequence number each source is assumed to start from; losses before
#: the first successful reception are counted against it.
INITIAL_EXPECTED_SEQ = 1


class LostTable:
    """Tracks missing (source, sequence-number) pairs for one member."""

    def __init__(
        self,
        capacity: int = LOST_TABLE_SIZE,
        initial_expected_seq: int = INITIAL_EXPECTED_SEQ,
        baseline_first_observation: bool = False,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.initial_expected_seq = initial_expected_seq
        #: When True, the first packet observed from a source sets that
        #: source's baseline instead of marking ``initial_expected_seq..seq-1``
        #: as lost.  Members joining a group mid-run use this so packets sent
        #: before their subscription are never recorded (or requested) as
        #: losses.
        self.baseline_first_observation = baseline_first_observation
        self._expected: Dict[int, int] = {}
        self._lost: "OrderedDict[MessageId, None]" = OrderedDict()
        self.overflow_drops = 0

    def __len__(self) -> int:
        return len(self._lost)

    def __contains__(self, message_id: MessageId) -> bool:
        return message_id in self._lost

    # ----------------------------------------------------------------- updates
    def observe(self, source: int, seq: int) -> bool:
        """Record the reception of message ``seq`` from ``source``.

        Returns True when the message was new (not a duplicate of something
        already received or already known lost-and-recovered).
        """
        expected = self._expected.get(source)
        if expected is None:
            if self.baseline_first_observation:
                self._expected[source] = seq + 1
                return True
            expected = self.initial_expected_seq
        if seq < expected:
            # Either a duplicate or a recovery of a previously lost message.
            return self.mark_recovered(source, seq)
        if seq > expected:
            for missing in range(expected, seq):
                self._record_loss((source, missing))
        self._expected[source] = seq + 1
        return True

    def _record_loss(self, message_id: MessageId) -> None:
        if message_id in self._lost:
            return
        self._lost[message_id] = None
        while len(self._lost) > self.capacity:
            self._lost.popitem(last=False)
            self.overflow_drops += 1

    def mark_recovered(self, source: int, seq: int) -> bool:
        """Remove a recovered message from the lost set (True if it was there)."""
        if (source, seq) not in self._lost:
            return False
        del self._lost[(source, seq)]
        return True

    # ----------------------------------------------------------------- queries
    def expected_seq(self, source: int) -> int:
        """Next expected sequence number for ``source``."""
        return self._expected.get(source, self.initial_expected_seq)

    def expected_map(self) -> Dict[int, int]:
        """Next expected sequence number for every known source."""
        return dict(self._expected)

    def is_lost(self, source: int, seq: int) -> bool:
        """True when (source, seq) is currently recorded as missing."""
        return (source, seq) in self._lost

    def most_recent_lost(self, limit: int) -> List[MessageId]:
        """The ``limit`` most recently recorded losses (the lost buffer)."""
        if limit < 0:
            raise ValueError("limit must be non-negative")
        return list(islice(reversed(self._lost), limit))

    def all_lost(self) -> List[MessageId]:
        """Every currently recorded loss, oldest first."""
        return list(self._lost.keys())

    def has_received(self, source: int, seq: int) -> bool:
        """Best-effort check: has this member already received (source, seq)?

        True when the sequence number is below the expected counter and not
        recorded as lost.
        """
        return seq < self.expected_seq(source) and not self.is_lost(source, seq)
