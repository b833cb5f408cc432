"""The AODV route table.

Each entry records the next hop towards a destination together with the
destination sequence number used to judge freshness, the hop count, and an
expiry time.  The update rules implement AODV's freshness ordering: a route
is replaced when the new information carries a strictly greater sequence
number, or an equal sequence number with a strictly smaller hop count, or
when the existing entry is invalid.

HELLO receipts are coalesced
----------------------------
A received HELLO means ``update(X, X, 1, seq, received + lifetime)`` (RFC 3561
section 6.9), and most such refreshes are overwritten by the neighbour's next
beacon before anyone looks.  So the table owns a *mailbox* (:attr:`hellos`;
see :mod:`repro.net.node`) in which the receive path stores the last receipt
per neighbour, and every public method first **folds** it: applies the
pending receipts through the unchanged :meth:`update` rule.  Only *when* the
arithmetic is done changes:

1. *The last receipt suffices.*  A node's HELLO ``seq`` never decreases and
   receipt times increase, so on any prior entry k receipts leave what the
   k-th alone leaves: the first that overwrites turns the rest into "same
   seq, same next hop: ``expiry = max``", the last; if none overwrites, only
   the expiry can move, again to ``max(old, last)``.
2. *Nobody sees the gap*: ``_entries`` is touched only by the methods below
   and each folds first, so a link break after a pending HELLO still sees
   "refreshed, then broken".
3. *Insertion order is kept* (it orders :meth:`invalidate_through`, hence
   RERR contents): a dict keeps an overwritten key's first position, and the
   fold runs before the triggering operation's own insert.
4. ``received + lifetime`` is the float expression the eager handler computed.

``tests/routing/test_route_table.py`` holds the eager rule as the oracle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.addressing import NodeId
from repro.routing.messages import HelloMessage


class RouteEntry:
    """One unicast route.

    Slotted: every folded hello refreshes an entry, so construction and
    field access sit on a hot path.
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

    def __init__(self, hello_lifetime_s: float = 0.0) -> None:
        self._entries: Dict[NodeId, RouteEntry] = {}
        #: The HELLO mailbox: neighbour -> (its last beacon, time received),
        #: stored by the node's receive paths, folded by every method below.
        self.hellos: Dict[NodeId, Tuple[HelloMessage, float]] = {}
        #: Lifetime a received HELLO gives the one-hop route to its sender.
        self._hello_lifetime_s = hello_lifetime_s

    def _fold(self) -> None:
        """Apply the pending HELLO receipts, in mailbox order, and clear them.

        The mailbox is emptied first, so the ``update`` calls below (and
        anything else that reads the table from here on) find nothing pending.
        """
        receipts = list(self.hellos.items())
        self.hellos.clear()
        lifetime = self._hello_lifetime_s
        for neighbor, (hello, at) in receipts:
            self.update(neighbor, neighbor, 1, hello.seq, at + lifetime)

    def __len__(self) -> int:
        if self.hellos:
            self._fold()
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        if self.hellos:
            self._fold()
        return iter(self._entries.values())

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        """Return the entry for ``destination`` whether or not it is valid."""
        if self.hellos:
            self._fold()
        return self._entries.get(destination)

    def lookup(self, destination: NodeId, now: float) -> Optional[RouteEntry]:
        """Return a usable route to ``destination`` or ``None``."""
        if self.hellos:
            self._fold()
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
        if self.hellos:
            self._fold()
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
            # Overwrite the existing record in place: hellos refresh the
            # one-hop route with a fresher sequence number all the time, so
            # the allocation matters.
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
        if self.hellos:
            self._fold()
        entry = self._entries.get(destination)
        if entry is not None and entry.valid:
            entry.expiry_time = max(entry.expiry_time, expiry_time)

    def invalidate(self, destination: NodeId) -> Optional[RouteEntry]:
        """Mark the route to ``destination`` as broken; returns the entry."""
        if self.hellos:
            self._fold()
        entry = self._entries.get(destination)
        if entry is not None and entry.valid:
            entry.valid = False
            entry.seq += 1
            return entry
        return None

    def invalidate_through(self, next_hop: NodeId) -> List[RouteEntry]:
        """Invalidate every route whose next hop is ``next_hop``."""
        if self.hellos:
            self._fold()
        broken: List[RouteEntry] = []
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                entry.seq += 1
                broken.append(entry)
        return broken

    def destinations(self) -> List[NodeId]:
        """All destinations with a table entry (valid or not)."""
        if self.hellos:
            self._fold()
        return sorted(self._entries)
