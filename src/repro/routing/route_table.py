"""The AODV route table.

Each entry records the next hop towards a destination together with the
destination sequence number used to judge freshness, the hop count, and an
expiry time.  The update rules implement AODV's freshness ordering: a route
is replaced when the new information carries a strictly greater sequence
number, or an equal sequence number with a strictly smaller hop count, or
when the existing entry is invalid.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.net.addressing import NodeId


class RouteEntry:
    """One unicast route.

    Slotted: every received hello refreshes an entry, so construction and
    field access sit on the per-beacon path.
    """

    __slots__ = ("destination", "next_hop", "hop_count", "seq", "expiry_time", "valid")

    def __init__(self, destination: NodeId, next_hop: NodeId, hop_count: int,
                 seq: int, expiry_time: float, valid: bool = True):
        self.destination = destination
        self.next_hop = next_hop
        self.hop_count = hop_count
        self.seq = seq
        self.expiry_time = expiry_time
        self.valid = valid

    def is_usable(self, now: float) -> bool:
        """True when the route may be used to forward traffic right now."""
        return self.valid and self.expiry_time > now


class RouteTable:
    """Next-hop routing table of one node."""

    def __init__(self) -> None:
        self._entries: Dict[NodeId, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._entries.values())

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        """Return the entry for ``destination`` whether or not it is valid."""
        return self._entries.get(destination)

    def lookup(self, destination: NodeId, now: float) -> Optional[RouteEntry]:
        """Return a usable route to ``destination`` or ``None``."""
        entry = self._entries.get(destination)
        if entry is not None and entry.is_usable(now):
            return entry
        return None

    def update(
        self,
        destination: NodeId,
        next_hop: NodeId,
        hop_count: int,
        seq: int,
        expiry_time: float,
    ) -> bool:
        """Install or refresh a route; returns True when the table changed."""
        current = self._entries.get(destination)
        if current is not None:
            if current.valid:
                newer = seq > current.seq
                same_but_shorter = seq == current.seq and hop_count < current.hop_count
                if not (newer or same_but_shorter):
                    # Keep the existing route but extend its lifetime if the
                    # information confirms the same next hop.
                    if current.next_hop == next_hop and current.seq == seq:
                        current.expiry_time = max(current.expiry_time, expiry_time)
                    return False
            # Overwrite the existing record in place: every hello refreshes
            # the one-hop route with a fresher sequence number, so this is a
            # per-received-beacon path and the allocation matters.
            current.next_hop = next_hop
            current.hop_count = hop_count
            current.seq = seq
            current.expiry_time = expiry_time
            current.valid = True
            return True
        self._entries[destination] = RouteEntry(destination, next_hop, hop_count, seq, expiry_time)
        return True

    def refresh(self, destination: NodeId, expiry_time: float) -> None:
        """Extend the lifetime of an active route that just carried traffic."""
        entry = self._entries.get(destination)
        if entry is not None and entry.valid:
            entry.expiry_time = max(entry.expiry_time, expiry_time)

    def invalidate(self, destination: NodeId) -> Optional[RouteEntry]:
        """Mark the route to ``destination`` as broken; returns the entry."""
        entry = self._entries.get(destination)
        if entry is not None and entry.valid:
            entry.valid = False
            entry.seq += 1
            return entry
        return None

    def invalidate_through(self, next_hop: NodeId) -> List[RouteEntry]:
        """Invalidate every route whose next hop is ``next_hop``."""
        broken: List[RouteEntry] = []
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.seq += 1
                broken.append(entry)
        return broken

    def purge_expired(self, now: float, grace_s: float = 30.0) -> int:
        """Remove entries that expired more than ``grace_s`` seconds ago."""
        stale = [
            destination
            for destination, entry in self._entries.items()
            if entry.expiry_time + grace_s < now
        ]
        for destination in stale:
            del self._entries[destination]
        return len(stale)

    def destinations(self) -> List[NodeId]:
        """All destinations with a table entry (valid or not)."""
        return sorted(self._entries)
