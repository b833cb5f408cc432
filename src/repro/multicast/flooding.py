"""The blind-flooding multicast baseline.

The paper's related-work section discusses flooding as the brute-force way
to obtain reliability in MANETs: every node rebroadcasts every new packet
once.  The router shares the delivery-listener interface of
:class:`~repro.multicast.maodv.MaodvRouter` so the same workload, metrics and
(optionally) gossip layer can run on top of it, which is what the flooding
baseline check uses.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId
from repro.net.node import Node
from repro.multicast.maodv import DATA_CACHE_SIZE, DATA_HEADER_BYTES, FLOOD_TTL
from repro.multicast.messages import DuplicateCache, MulticastData
from repro.routing.aodv import BROADCAST_JITTER_S, AodvRouter

DataListener = Callable[[MulticastData], None]


class FloodingStats:
    """Per-node counters for the flooding baseline."""

    def __init__(self) -> None:
        self.data_originated = 0
        self.data_forwarded = 0
        self.data_delivered = 0
        self.data_duplicates = 0


class FloodingRouter:
    """Blind flooding multicast."""

    def __init__(self, node: Node, aodv: AodvRouter):
        self.node = node
        self.sim = node.sim
        self.aodv = aodv
        self.rng = node.streams.for_node("flooding", node.node_id)
        self.stats = FloodingStats()
        self._members: Dict[GroupAddress, bool] = {}
        self._data_seq: Dict[GroupAddress, int] = {}
        self._seen = DuplicateCache(DATA_CACHE_SIZE)
        self._delivery_listeners: List[DataListener] = []
        node.register_handler(MulticastData, self._on_multicast_data)

    # ------------------------------------------------------------------ basics
    @property
    def node_id(self) -> NodeId:
        """Identifier of the owning node."""
        return self.node.node_id

    def add_delivery_listener(self, listener: DataListener) -> None:
        """Subscribe to multicast data delivered to this node as a member."""
        self._delivery_listeners.append(listener)

    def is_member(self, group: GroupAddress) -> bool:
        """True when this node joined ``group``."""
        return self._members.get(group, False)

    def is_on_tree(self, group: GroupAddress) -> bool:
        """Flooding has no tree; every node participates."""
        return True

    def join_group(self, group: GroupAddress) -> None:
        """Join ``group`` (purely local state for flooding)."""
        self._members[group] = True

    def leave_group(self, group: GroupAddress) -> None:
        """Leave ``group``."""
        self._members.pop(group, None)

    def tree_neighbors(self, group: GroupAddress) -> List[NodeId]:
        """Flooding's "tree" is the current neighbourhood."""
        return self.aodv.neighbors()

    def nearest_member_via(self, group: GroupAddress, neighbor: NodeId) -> int:
        """Without a tree there is no member-distance information."""
        return 1

    # --------------------------------------------------------------- data plane
    def send_data(self, group: GroupAddress, size_bytes: int = 64) -> MulticastData:
        """Originate one multicast data packet to ``group``."""
        seq = self._data_seq.get(group, 0) + 1
        self._data_seq[group] = seq
        data = MulticastData(
            origin=self.node_id,
            destination=group,
            size_bytes=size_bytes + DATA_HEADER_BYTES,
            ttl=FLOOD_TTL,
            group=group,
            source=self.node_id,
            seq=seq,
            sent_at=self.sim.now,
        )
        self.stats.data_originated += 1
        self._seen.remember(data.mid)
        if self.is_member(group):
            self._deliver(data)
        self._broadcast(data)
        return data

    def _on_multicast_data(self, data: MulticastData, from_node: NodeId) -> None:
        key = data.mid
        if key in self._seen:
            self.stats.data_duplicates += 1
            return
        self._seen.remember(key)
        if self.is_member(data.group):
            self._deliver(data)
        if data.ttl <= 1:
            return
        forwarded = data.copy_for_forwarding()
        self.stats.data_forwarded += 1
        self._broadcast(forwarded)

    def _broadcast(self, data: MulticastData) -> None:
        jitter = self.rng.uniform(0.0, BROADCAST_JITTER_S)
        self.sim.call_in(jitter, self.node.send_frame, (data, BROADCAST_ADDRESS))

    def _deliver(self, data: MulticastData) -> None:
        self.stats.data_delivered += 1
        for listener in self._delivery_listeners:
            listener(data)
