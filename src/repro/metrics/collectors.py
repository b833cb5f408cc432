"""Delivery accounting.

The paper's figures plot, per simulation run, the number of multicast data
packets received by each group member (the error bars show the min-max range
across members, the line the mean).  :class:`DeliveryCollector` gathers
exactly that: sources register the packets they send, members register the
packets they receive -- whether the packet arrived through MAODV or through a
gossip reply -- and duplicates are counted once.

With dynamic membership (see :mod:`repro.membership`) the collector becomes
*interval-aware*: :meth:`DeliveryCollector.open_interval` /
:meth:`~DeliveryCollector.close_interval` record a member's subscription
spans, and a packet then counts for (and against) that member only when it
was **sent while the member was subscribed**.  Members without recorded
intervals keep the paper's static accounting -- every sent packet counts --
so scenarios without churn are bit-identical to the original collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

MessageId = Tuple[int, int]


@dataclass
class MemberDelivery:
    """Reception record of one group member."""

    member: int
    #: source -> byte per seq, 1 once received (a set of ids costs ~50 bytes each)
    marks: Dict[int, bytearray] = field(default_factory=dict)
    via_routing: int = 0
    via_gossip: int = 0

    @property
    def count(self) -> int:
        """Number of distinct data packets this member received."""
        return self.via_routing + self.via_gossip

    def has(self, message_id: MessageId) -> bool:
        """True once packet ``(source, seq)`` was received."""
        source, seq = message_id
        return self.marks.get(source, b"")[seq:seq + 1] == b"\x01"


@dataclass
class DeliverySummary:
    """Per-run statistics over all members (one data point of a paper figure)."""

    packets_sent: int
    member_counts: Dict[int, int]
    mean: float
    minimum: int
    maximum: int
    std: float
    delivery_ratio: float
    #: Number of members the delivery ratio averaged over.  ``None`` means
    #: every member in ``member_counts`` (the static accounting); with
    #: subscription intervals, members whose expected-packet set is empty
    #: are excluded from the ratio and from this count.
    ratio_members: Optional[int] = None

    def __str__(self) -> str:
        return (
            f"sent={self.packets_sent} mean={self.mean:.1f} "
            f"min={self.minimum} max={self.maximum} "
            f"ratio={self.delivery_ratio:.3f}"
        )


class DeliveryCollector:
    """Collects sent/received packet counts for one multicast group."""

    def __init__(self) -> None:
        #: sent packet -> its send time (the keys are the sent packets).
        self._sent_at: Dict[MessageId, float] = {}
        self._members: Dict[int, MemberDelivery] = {}
        #: member -> subscription spans ``[start, end]`` (``end`` None while open).
        self._intervals: Dict[int, List[List[Optional[float]]]] = {}
        #: Optional observer ``(member, message_id, via_gossip)`` called on
        #: each first-time delivery; installed only by instrumented runs.
        self.on_delivery = None

    # ------------------------------------------------------------------ inputs
    def register_member(self, member: int) -> None:
        """Declare ``member`` as a group member (so zero counts appear too)."""
        self._members.setdefault(member, MemberDelivery(member=member))

    def note_sent(self, message_id: MessageId, at: float) -> None:
        """Record that the source multicast packet ``(source, seq)`` at ``at``.

        Callers pass the packet's own id (``MulticastData.mid``), so every
        table here shares the one tuple the message carries.
        """
        self._sent_at[message_id] = at

    def note_delivered(self, member: int, message_id: MessageId, *, via_gossip: bool = False) -> None:
        """Record that ``member`` received packet ``(source, seq)``.

        Duplicate deliveries of the same packet to the same member are
        ignored, matching the paper's per-receiver packet counts.
        """
        record = self._members.get(member)
        if record is None:
            record = self._members[member] = MemberDelivery(member=member)
        source, seq = message_id
        marks = record.marks.setdefault(source, bytearray())
        if seq >= len(marks):
            marks.extend(bytes(seq + 1 - len(marks)))
        elif marks[seq]:
            return
        marks[seq] = 1
        if via_gossip:
            record.via_gossip += 1
        else:
            record.via_routing += 1
        if self.on_delivery is not None:
            self.on_delivery(member, message_id, via_gossip)

    # ----------------------------------------------------- membership intervals
    def open_interval(self, member: int, at: float) -> None:
        """Start a subscription span for ``member`` at time ``at``.

        From the first opened interval on, the member's delivery accounting
        only covers packets sent inside one of its spans.  Opening while a
        span is already open is a no-op (idempotent joins).
        """
        self.register_member(member)
        spans = self._intervals.setdefault(member, [])
        if spans and spans[-1][1] is None:
            return
        spans.append([at, None])

    def close_interval(self, member: int, at: float) -> None:
        """End the member's open subscription span at time ``at``."""
        spans = self._intervals.get(member)
        if not spans or spans[-1][1] is not None:
            return
        spans[-1][1] = at

    def intervals_of(self, member: int) -> List[Tuple[float, Optional[float]]]:
        """The member's recorded subscription spans (empty = always subscribed)."""
        return [tuple(span) for span in self._intervals.get(member, [])]

    def _subscribed_at(self, member: int, at: float) -> bool:
        for start, end in self._intervals.get(member, []):
            if start <= at and (end is None or at < end):
                return True
        return False

    def expected_for(self, member: int) -> Set[MessageId]:
        """Packets that count for ``member``: sent while it was subscribed.

        Members without recorded intervals expect every sent packet (the
        paper's static accounting).
        """
        if member not in self._intervals:
            return set(self._sent_at)
        return {
            message_id
            for message_id, sent_at in self._sent_at.items()
            if self._subscribed_at(member, sent_at)
        }

    # ----------------------------------------------------------------- queries
    @property
    def packets_sent(self) -> int:
        """Number of distinct data packets multicast by the sources."""
        return len(self._sent_at)

    @property
    def members(self) -> List[int]:
        """Registered member identifiers."""
        return sorted(self._members)

    def member_record(self, member: int) -> MemberDelivery:
        """Full reception record of ``member``."""
        return self._members.setdefault(member, MemberDelivery(member=member))

    def summary(self) -> DeliverySummary:
        """Aggregate statistics over all registered members.

        Without recorded intervals this is the paper's computation verbatim.
        With intervals, each member's count covers only packets sent while it
        was subscribed and the delivery ratio averages the per-member ratios
        (each against the member's own expected-packet denominator).
        """
        # One expected-set computation per interval member, shared by the
        # count and the per-member ratio denominator.
        counts: Dict[int, int] = {}
        expected_sizes: Dict[int, int] = {}
        for member, record in sorted(self._members.items()):
            if member in self._intervals:
                expected = self.expected_for(member)
                counts[member] = sum(map(record.has, expected))
                expected_sizes[member] = len(expected)
            else:
                counts[member] = record.count
        values = list(counts.values())
        if not values:
            return DeliverySummary(
                packets_sent=self.packets_sent,
                member_counts={},
                mean=0.0,
                minimum=0,
                maximum=0,
                std=0.0,
                delivery_ratio=0.0,
            )
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        sent = self.packets_sent
        ratio_members: Optional[int] = None
        if not self._intervals:
            ratio = (mean / sent) if sent else 0.0
        else:
            per_member: List[float] = []
            for member, count in counts.items():
                expected_size = expected_sizes.get(member, sent)
                if expected_size:
                    per_member.append(count / expected_size)
            ratio = (sum(per_member) / len(per_member)) if per_member else 0.0
            ratio_members = len(per_member)
        return DeliverySummary(
            packets_sent=sent,
            member_counts=counts,
            mean=mean,
            minimum=min(values),
            maximum=max(values),
            std=math.sqrt(variance),
            delivery_ratio=ratio,
            ratio_members=ratio_members,
        )
