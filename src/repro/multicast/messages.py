"""MAODV control and data messages, and the routers' duplicate cache.

MAODV reuses AODV's message structure with multicast extensions; here the
extensions are modelled as dedicated packet classes to keep the two protocols
independently testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId
from repro.net.packet import Packet


@dataclass(eq=False, repr=False)
class MulticastData(Packet):
    """A multicast data packet forwarded along the group tree.

    ``destination`` holds the group address; ``origin`` is the original
    multicast source; ``seq`` is the per-source sequence number that the
    gossip layer uses to detect losses; ``sent_at`` is the origination
    timestamp (stamped by every protocol's ``send_data``), which lets
    gossip responders serve a mid-run joiner exactly the post-join suffix.
    """

    group: GroupAddress = -1
    source: NodeId = -1
    seq: int = 0
    sent_at: float = 0.0
    #: ``(source, seq)``, built once: every forwarded or gossiped copy shares
    #: this one tuple, which keys every per-node table of the message.
    mid: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mid = (self.source, self.seq)

    def message_id(self) -> tuple:
        """Globally unique id of the multicast message: (source, seq)."""
        return self.mid


class DuplicateCache(dict):
    """The ``capacity`` most recently first-seen message ids.

    A dict, so ``key in cache`` costs no Python frame; :meth:`remember` evicts
    the oldest first-seen key past ``capacity`` in O(1), and a present key
    keeps its place.  Nothing is deleted before the first overflow, so the
    FIFO record is built then from the dict's own insertion order: a cache
    that never fills is just a dict.
    """

    __slots__ = ("capacity", "_order")

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity
        self._order: Optional[deque] = None

    def remember(self, key) -> None:
        """Insert ``key`` (a no-op when present), evicting the oldest past capacity."""
        self[key] = None
        if len(self) > self.capacity:
            order = self._order
            if order is None:
                order = self._order = deque(self)
            else:
                order.append(key)
            del self[order.popleft()]


@dataclass(eq=False, repr=False)
class JoinRequest(Packet):
    """RREQ with the join (or repair) flag set, flooded by a joining node."""

    group: GroupAddress = -1
    origin_seq: int = 0
    rreq_id: int = 0
    hop_count: int = 0
    group_seq: int = 0
    group_seq_known: bool = False
    #: True when this request repairs a broken tree link rather than joining.
    repair: bool = False
    #: For repair requests: the requester's last known distance to the group
    #: leader.  Only nodes strictly closer to the leader may answer.
    requester_hops_to_leader: int = 0
    #: ``(origin, rreq_id)``, built once and shared, as ``RouteRequest``'s.
    flood_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.flood_key = (self.origin, self.rreq_id)


@dataclass(eq=False, repr=False)
class JoinReply(Packet):
    """RREP sent by a tree member/router back towards the join requester."""

    group: GroupAddress = -1
    #: Node on the multicast tree that generated the reply.
    replier: NodeId = -1
    group_seq: int = 0
    group_leader: NodeId = -1
    #: Hops from the forwarding node to the replier (incremented per hop).
    hop_count: int = 0
    #: Replier's distance to the group leader.
    hops_to_leader: int = 0
    #: Echo of the request's rreq_id so the requester can match replies.
    rreq_id: int = 0


@dataclass(eq=False, repr=False)
class MactMessage(Packet):
    """Multicast activation message (MACT).

    ``kind`` is ``"activate"`` to graft the sender onto the tree via the
    receiving next hop, or ``"prune"`` to leave the tree.
    """

    group: GroupAddress = -1
    kind: str = "activate"
    rreq_id: int = 0


@dataclass(eq=False, repr=False)
class GroupHello(Packet):
    """Periodic network-wide announcement flooded by the group leader."""

    group: GroupAddress = -1
    leader: NodeId = -1
    group_seq: int = 0
    hop_count: int = 0
    #: ``(leader, group_seq, group)``, built once and shared.
    flood_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.flood_key = (self.leader, self.group_seq, self.group)


@dataclass(eq=False, repr=False)
class LeaderHandoff(Packet):
    """Tree-scoped announcement that the group leader is leaving the group.

    Flooded along the multicast tree by an abdicating leader.  The flood
    carries the election state of a **one-pass best-so-far election**: each
    member it reaches bids with its membership age, a copy is (re-)forwarded
    only when it improves the best candidate a router has seen, and after
    ``handoff_wait_s`` the member that still holds the best bid it knows of
    takes over.  Ranking is deterministic -- older membership wins, node id
    breaks exact ties -- so leadership stays with a *member* instead of a
    leaver continuing to lead until partition/merge machinery runs.
    """

    group: GroupAddress = -1
    #: The abdicating leader.
    leader: NodeId = -1
    #: The abdicating leader's final group sequence number; a takeover
    #: bumps past it, so a later hello supersedes the hand-off.
    group_seq: int = 0
    #: Best successor candidate accumulated so far along this copy's path
    #: (``-1`` = no member bid yet).
    candidate: NodeId = -1
    #: The candidate's membership age in seconds, stamped once when it bid.
    candidate_age_s: float = -1.0
    #: ``(group, leader, group_seq)``: the election identity (and
    #: duplicate-suppression key) of the flood, built once and shared.  It
    #: excludes the candidate fields: copies carrying improved bids belong to
    #: the same election.
    flood_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.flood_key = (self.group, self.leader, self.group_seq)


@dataclass(eq=False, repr=False)
class NearestMemberUpdate(Packet):
    """Modify message propagating nearest-member distances along the tree.

    This is the paper's section 4.2 maintenance traffic: when a node's
    advertised distance-to-nearest-member towards one of its tree next hops
    changes, it sends the new value to that next hop.
    """

    group: GroupAddress = -1
    distance: int = 0
