"""Per-group membership state: who is subscribed, and when were they.

:class:`MembershipDirectory` is the single source of truth for dynamic group
membership.  It records every join and leave as a :class:`MembershipEvent`,
maintains the current member set of each group, and exposes the *subscription
intervals* of every node -- the ``[join, leave)`` spans the delivery metrics
use to decide which packets a member can fairly be charged with
(see :meth:`repro.metrics.collectors.DeliveryCollector.open_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class MembershipEvent:
    """One applied membership change."""

    time_s: float
    group_index: int
    node_id: int
    kind: str  # "join" or "leave"


class MembershipDirectory:
    """Tracks members and subscription intervals for ``group_count`` groups."""

    def __init__(self, group_count: int = 1):
        if group_count < 1:
            raise ValueError("group_count must be at least 1")
        self.group_count = group_count
        self._members: List[Set[int]] = [set() for _ in range(group_count)]
        #: group -> node -> list of [start, end] spans; ``end is None`` while
        #: the subscription is still open.
        self._intervals: List[Dict[int, List[List[Optional[float]]]]] = [
            {} for _ in range(group_count)
        ]
        self.events: List[MembershipEvent] = []

    # ------------------------------------------------------------------ updates
    def record_join(self, group_index: int, node_id: int, now: float) -> bool:
        """Record a join; returns False (no-op) when already a member."""
        members = self._members[group_index]
        if node_id in members:
            return False
        members.add(node_id)
        self._intervals[group_index].setdefault(node_id, []).append([now, None])
        self.events.append(MembershipEvent(now, group_index, node_id, "join"))
        return True

    def record_leave(self, group_index: int, node_id: int, now: float) -> bool:
        """Record a leave; returns False (no-op) when not currently a member."""
        members = self._members[group_index]
        if node_id not in members:
            return False
        members.remove(node_id)
        spans = self._intervals[group_index][node_id]
        spans[-1][1] = now
        self.events.append(MembershipEvent(now, group_index, node_id, "leave"))
        return True

    # ------------------------------------------------------------------ queries
    def members(self, group_index: int) -> List[int]:
        """Current members of the group, sorted."""
        return sorted(self._members[group_index])

    def member_count(self, group_index: int) -> int:
        """Number of current members of the group."""
        return len(self._members[group_index])

    def is_member(self, group_index: int, node_id: int) -> bool:
        """True while ``node_id`` is currently subscribed to the group."""
        return node_id in self._members[group_index]

    def ever_members(self, group_index: int) -> List[int]:
        """Every node that was a member of the group at any point, sorted."""
        return sorted(self._intervals[group_index])

    def intervals(self, group_index: int, node_id: int) -> List[Tuple[float, Optional[float]]]:
        """The node's subscription spans, oldest first (open span ends ``None``)."""
        return [tuple(span) for span in self._intervals[group_index].get(node_id, [])]
