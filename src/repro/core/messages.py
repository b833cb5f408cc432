"""Gossip protocol messages.

A :class:`GossipRequest` mirrors the five fields of the paper's gossip
message (group address, source address, lost buffer, number lost, expected
sequence number), generalised to multiple senders: the expected sequence
number is carried per multicast source.

A :class:`GossipReply` carries the recovered data packets back to the gossip
initiator via unicast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addressing import GroupAddress, NodeId
from repro.net.packet import Packet
from repro.multicast.messages import MulticastData

#: A lost-message identifier: (multicast source, per-source sequence number).
MessageId = Tuple[NodeId, int]


@dataclass(eq=False, repr=False)
class GossipRequest(Packet):
    """A gossip message propagated anonymously or unicast to a cached member."""

    group: GroupAddress = -1
    #: The member that started the gossip round (the paper's Source Address).
    initiator: NodeId = -1
    #: Sequence numbers the initiator believes it has lost (bounded).
    lost: List[MessageId] = field(default_factory=list)
    #: Next expected sequence number per multicast source.
    expected: Dict[NodeId, int] = field(default_factory=dict)
    #: Remaining tree-hop budget for anonymous propagation.
    hops_remaining: int = 16
    #: True for cached gossip: the request was unicast straight to a known
    #: member and must be accepted rather than propagated.
    direct: bool = False
    #: When the initiator's current subscription began, or ``None`` for a
    #: member subscribed since the start of the run.  The responder may
    #: serve messages from sources the initiator has never heard of
    #: (history bootstrap); data packets carry their send time, so a
    #: mid-run joiner is served exactly the post-join suffix: every served
    #: message must satisfy ``sent_at >= joined_at``.
    joined_at: Optional[float] = None


@dataclass(eq=False, repr=False)
class GossipReply(Packet):
    """Recovered messages unicast back to the gossip initiator."""

    group: GroupAddress = -1
    #: The member that accepted the gossip and produced this reply.
    responder: NodeId = -1
    #: Recovered data packets (copies out of the responder's history table).
    messages: List[MulticastData] = field(default_factory=list)
