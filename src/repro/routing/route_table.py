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
per neighbour, and the methods below **fold** it -- apply pending receipts
by the :meth:`update` rule -- as far as what they read requires.  Only
*when* the arithmetic is done changes:

1. *The last receipt suffices.*  A node's HELLO ``seq`` never decreases and
   receipt times increase, so on any prior entry k receipts leave what the
   k-th alone leaves: the first that overwrites turns the rest into "same
   seq, same next hop: ``expiry = max``", the last; if none overwrites, only
   the expiry can move, again to ``max(old, last)``.
2. *A receipt is folded when its route is read.*  A receipt from X touches
   X's entry only, so an operation on destination D (:meth:`entry`,
   :meth:`lookup`, :meth:`update`, :meth:`refresh`, :meth:`invalidate`)
   folds D's own receipt first -- a link break after a pending HELLO still
   sees "refreshed, then broken" -- and leaves every other neighbour's
   pending.  What reads every entry (iteration, ``len``,
   :meth:`invalidate_through`, :meth:`destinations`) folds them all.
3. *Insertion order is kept* (it orders :meth:`invalidate_through`, hence
   RERR contents).  Only a receipt whose sender has no entry yet inserts,
   and a dict keeps an overwritten key's first position; so every operation
   first folds, in mailbox order, each pending receipt from a sender without
   an entry, before its own insert.  ``hellos.keys() <= _entries.keys()`` is
   the test that there is none.
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

    def _apply(self, receipts) -> None:
        """Fold ``(sender, (hello, received))`` receipts, in order: each is
        ``update(sender, sender, 1, hello.seq, received + lifetime)``."""
        entries = self._entries
        lifetime = self._hello_lifetime_s
        for sender, (hello, at) in receipts:
            seq = hello.seq
            expiry = at + lifetime
            current = entries.get(sender)
            if current is None:
                entries[sender] = RouteEntry(sender, sender, 1, seq, expiry)
            elif current.valid and (seq < current.seq or (
                    seq == current.seq and current.hop_count <= 1)):
                # Not fresher: at most a confirmation of the same route.
                if current.next_hop == sender and current.seq == seq:
                    current.expiry_time = max(current.expiry_time, expiry)
            else:
                current.next_hop = sender
                current.hop_count = 1
                current.seq = seq
                current.expiry_time = expiry
                current.valid = True

    def _fold(self) -> None:
        """Fold every pending receipt, in mailbox order; empty the mailbox."""
        receipts = list(self.hellos.items())
        self.hellos.clear()
        self._apply(receipts)

    def _fold_for(self, destination: NodeId) -> None:
        """Fold what an operation on ``destination`` may observe (rules 2-3):
        the receipts of senders without an entry, in mailbox order, then
        ``destination``'s own."""
        hellos = self.hellos
        entries = self._entries
        if hellos.keys() <= entries.keys():
            receipt = hellos.pop(destination, None)
            if receipt is not None:
                self._apply(((destination, receipt),))
            return
        receipts = [item for item in hellos.items() if item[0] not in entries]
        for sender, _ in receipts:
            del hellos[sender]
        receipt = hellos.pop(destination, None)
        if receipt is not None:
            receipts.append((destination, receipt))
        self._apply(receipts)

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
            self._fold_for(destination)
        return self._entries.get(destination)

    def lookup(self, destination: NodeId, now: float) -> Optional[RouteEntry]:
        """Return a usable route to ``destination`` or ``None``."""
        if self.hellos:
            self._fold_for(destination)
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
            self._fold_for(destination)
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
            self._fold_for(destination)
        entry = self._entries.get(destination)
        if entry is not None and entry.valid:
            entry.expiry_time = max(entry.expiry_time, expiry_time)

    def invalidate(self, destination: NodeId) -> Optional[RouteEntry]:
        """Mark the route to ``destination`` as broken; returns the entry."""
        if self.hellos:
            self._fold_for(destination)
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
