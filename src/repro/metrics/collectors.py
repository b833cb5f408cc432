"""Delivery accounting.

The paper's figures plot, per simulation run, the number of multicast data
packets received by each group member (the error bars show the min-max range
across members, the line the mean).  :class:`DeliveryCollector` gathers
exactly that: sources register the packets they send, members register the
packets they receive -- whether the packet arrived through MAODV or through a
gossip reply -- and duplicates are counted once.

The collector is *interval-aware*: :meth:`DeliveryCollector.open_interval`
/ :meth:`~DeliveryCollector.close_interval` record a member's subscription
spans (the :mod:`repro.membership` controller opens one on every join, the
initial ones included), and a packet counts for (and against) a member only
when it was **sent while the member was subscribed**.  A member that never
subscribed is charged for nothing.
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
    #: Number of members the delivery ratio averaged over: members whose
    #: expected-packet set is empty are excluded from the ratio and from
    #: this count.
    ratio_members: int

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

        The member's delivery accounting covers only packets sent inside one
        of its spans.  Opening while a span is already open is a no-op
        (idempotent joins).
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
        """The member's recorded subscription spans (empty = never subscribed)."""
        return [tuple(span) for span in self._intervals.get(member, [])]

    def expected_for(self, member: int) -> Set[MessageId]:
        """Packets that count for ``member``: sent while it was subscribed."""
        return set(self._sent_during_spans(member))

    def _sent_during_spans(self, member: int) -> List[MessageId]:
        # Spans are disjoint -- one opens only after the previous one closed,
        # at a later simulated time -- so no packet is listed twice.
        return [
            message_id
            for start, end in self._intervals.get(member, [])
            for message_id, sent_at in self._sent_at.items()
            if start <= sent_at and (end is None or sent_at < end)
        ]

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

        Each member's count covers only packets sent while it was
        subscribed, and the delivery ratio averages the per-member ratios
        (each against the member's own expected-packet denominator).  When
        every member expected every sent packet, the ratio is the paper's
        ``mean / sent``: equal in exact arithmetic, and the form every
        churn-free figure was computed in, bit for bit.
        """
        # One expected-packet list per member, shared by the count and the
        # per-member ratio denominator.
        counts: Dict[int, int] = {}
        expected_sizes: Dict[int, int] = {}
        for member, record in sorted(self._members.items()):
            expected = self._sent_during_spans(member)
            counts[member] = sum(map(record.has, expected))
            expected_sizes[member] = len(expected)
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
                ratio_members=0,
            )
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        sent = self.packets_sent
        per_member = [
            counts[member] / size for member, size in expected_sizes.items() if size
        ]
        if not per_member:
            ratio = 0.0
        elif all(size == sent for size in expected_sizes.values()):
            ratio = mean / sent
        else:
            ratio = sum(per_member) / len(per_member)
        return DeliverySummary(
            packets_sent=sent,
            member_counts=counts,
            mean=mean,
            minimum=min(values),
            maximum=max(values),
            std=math.sqrt(variance),
            delivery_ratio=ratio,
            ratio_members=len(per_member),
        )
