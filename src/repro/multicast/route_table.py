"""The multicast route table (MRT).

Each node keeps one :class:`GroupEntry` per multicast group it participates
in (as a member and/or as a tree router).  The entry records the group
leader, the group sequence number, the node's distance to the leader and the
set of tree next hops.  Following the paper's section 4.2, every next hop
additionally carries a ``nearest_member`` distance used by Anonymous Gossip
to bias propagation towards nearby members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.net.addressing import GroupAddress, NodeId


@dataclass(eq=False, repr=False)
class NextHopEntry:
    """One link of the multicast tree as seen from this node."""

    neighbor: NodeId
    enabled: bool = False
    is_upstream: bool = False
    #: Distance (hops) to the nearest group member reachable through this
    #: next hop, as advertised by the neighbour (paper section 4.2).
    nearest_member: int = 64


@dataclass(eq=False, repr=False)
class GroupEntry:
    """This node's view of one multicast group."""

    group: GroupAddress
    leader: NodeId = -1
    group_seq: int = 0
    hops_to_leader: int = 0
    is_member: bool = False
    next_hops: Dict[NodeId, NextHopEntry] = field(default_factory=dict)

    # ------------------------------------------------------------- next hops
    def add_next_hop(
        self, neighbor: NodeId, *, enabled: bool = False, is_upstream: bool = False,
        nearest_member: int = 64,
    ) -> NextHopEntry:
        """Add (or return the existing) next-hop entry for ``neighbor``."""
        entry = self.next_hops.get(neighbor)
        if entry is None:
            entry = NextHopEntry(
                neighbor=neighbor,
                enabled=enabled,
                is_upstream=is_upstream,
                nearest_member=nearest_member,
            )
            self.next_hops[neighbor] = entry
        else:
            entry.enabled = entry.enabled or enabled
            entry.is_upstream = entry.is_upstream or is_upstream
        return entry

    def enable_next_hop(self, neighbor: NodeId, *, is_upstream: bool = False) -> NextHopEntry:
        """Mark the entry for ``neighbor`` as an active tree link."""
        entry = self.add_next_hop(neighbor)
        entry.enabled = True
        if is_upstream:
            self.set_upstream(neighbor)
        return entry

    def remove_next_hop(self, neighbor: NodeId) -> Optional[NextHopEntry]:
        """Delete the entry for ``neighbor`` (returns it if it existed)."""
        return self.next_hops.pop(neighbor, None)

    def set_upstream(self, neighbor: NodeId) -> None:
        """Mark ``neighbor`` as the upstream next hop (towards the leader)."""
        for entry in self.next_hops.values():
            entry.is_upstream = entry.neighbor == neighbor

    # ---------------------------------------------------------------- queries
    def tree_neighbors(self) -> List[NodeId]:
        """Enabled (active) tree next hops."""
        return sorted(n for n, e in self.next_hops.items() if e.enabled)

    def potential_neighbors(self) -> List[NodeId]:
        """All next hops including not-yet-activated ones."""
        return sorted(self.next_hops)

    def upstream(self) -> Optional[NodeId]:
        """The enabled next hop towards the group leader, if any."""
        for neighbor, entry in self.next_hops.items():
            if entry.enabled and entry.is_upstream:
                return neighbor
        return None

    def downstream(self) -> List[NodeId]:
        """Enabled next hops away from the group leader."""
        return sorted(
            n for n, e in self.next_hops.items() if e.enabled and not e.is_upstream
        )

    @property
    def on_tree(self) -> bool:
        """True when this node is part of the multicast tree."""
        if self.is_member:
            return True
        for entry in self.next_hops.values():
            if entry.enabled:
                return True
        return False

    @property
    def is_leaf_router(self) -> bool:
        """True for a non-member router with at most one active tree link."""
        return not self.is_member and sum(e.enabled for e in self.next_hops.values()) <= 1

    # ------------------------------------------------------- nearest members
    def nearest_member_via(self, neighbor: NodeId) -> int:
        """Nearest-member distance advertised by ``neighbor``."""
        entry = self.next_hops.get(neighbor)
        if entry is None:
            return 64
        return entry.nearest_member

    def set_nearest_member(self, neighbor: NodeId, distance: int) -> bool:
        """Record the distance advertised by ``neighbor``; True if changed."""
        entry = self.next_hops.get(neighbor)
        if entry is None:
            return False
        if entry.nearest_member == distance:
            return False
        entry.nearest_member = distance
        return True

    def advertised_distance_to(self, neighbor: NodeId, infinity: int = 64) -> int:
        """Distance this node should advertise towards ``neighbor``.

        Per the paper: one plus the minimum of this node's own membership
        (distance zero) and the distances through every *other* enabled next
        hop, capped at ``infinity``.
        """
        best = 0 if self.is_member else infinity
        for other, entry in self.next_hops.items():
            if other == neighbor or not entry.enabled:
                continue
            best = min(best, entry.nearest_member)
        return min(best + 1, infinity)


class MulticastRouteTable:
    """All multicast group state of one node."""

    def __init__(self) -> None:
        #: Shared with :class:`~repro.multicast.maodv.MaodvRouter`, whose data
        #: path reads it without the :meth:`entry` frame: never rebound.
        self._groups: Dict[GroupAddress, GroupEntry] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[GroupEntry]:
        return iter(self._groups.values())

    def entry(self, group: GroupAddress) -> Optional[GroupEntry]:
        """Return the entry for ``group`` if this node participates in it."""
        return self._groups.get(group)

    def get_or_create(self, group: GroupAddress) -> GroupEntry:
        """Return the entry for ``group``, creating an empty one if needed."""
        entry = self._groups.get(group)
        if entry is None:
            entry = GroupEntry(group=group)
            self._groups[group] = entry
        return entry

    def remove(self, group: GroupAddress) -> None:
        """Forget all state about ``group``."""
        self._groups.pop(group, None)

    def groups(self) -> List[GroupAddress]:
        """Addresses of every known group."""
        return sorted(self._groups)
