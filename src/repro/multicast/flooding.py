"""The blind-flooding multicast baseline.

The paper's related-work section discusses flooding as the brute-force way
to obtain reliability in MANETs: every node rebroadcasts every new packet
once.  The router is a :class:`~repro.multicast.router.MulticastRouter`, so
the same workload, metrics and (optionally) gossip layer can run on top of
it, which is what the flooding baseline check uses.
"""

from __future__ import annotations

from typing import List

from repro.net.addressing import GroupAddress, NodeId
from repro.net.node import Node
from repro.multicast.messages import MulticastData
from repro.multicast.router import FLOOD_TTL, MulticastRouter
from repro.routing.aodv import AodvRouter


class FloodingStats:
    """Per-node counters for the flooding baseline."""

    def __init__(self) -> None:
        self.data_originated = 0
        self.data_forwarded = 0
        self.data_delivered = 0
        self.data_duplicates = 0


class FloodingRouter(MulticastRouter):
    """Blind flooding multicast."""

    stream = "flooding"

    def __init__(self, node: Node, aodv: AodvRouter):
        super().__init__(node, aodv, FloodingStats())

    def is_on_tree(self, group: GroupAddress) -> bool:
        """Flooding has no tree; every node participates."""
        return True

    def tree_neighbors(self, group: GroupAddress) -> List[NodeId]:
        """Flooding's "tree" is the current neighbourhood."""
        return self.aodv.neighbors()

    def send_data(self, group: GroupAddress, size_bytes: int = 64) -> MulticastData:
        """Originate one multicast data packet to ``group``."""
        data = self._originate(group, size_bytes, ttl=FLOOD_TTL)
        self.node.broadcast_jittered(data, self.rng)
        return data

    def _on_multicast_data(self, data: MulticastData, from_node: NodeId) -> None:
        key = data.mid
        if key in self._seen_data:
            self.stats.data_duplicates += 1
            return
        self._seen_data.remember(key)
        if self.is_member(data.group):
            self._deliver(data)
        if data.ttl <= 1:
            return
        forwarded = data.forwarded(ttl=data.ttl - 1, uid=data.uid)
        self.stats.data_forwarded += 1
        self.node.broadcast_jittered(forwarded, self.rng)
