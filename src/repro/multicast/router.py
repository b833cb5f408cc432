"""The multicast data plane MAODV, ODMRP and flooding share.

The gossip layer, the sources and the sinks use one surface of whichever
multicast router a scenario runs: ``send_data``, ``add_delivery_listener``,
``is_member``, ``tree_neighbors`` and ``nearest_member_via``.
:class:`MulticastRouter` holds what every router does the same way behind it
-- per-group data numbering, the (source, seq) duplicate cache, member
delivery -- and the baselines' plain membership flag, which MAODV replaces
with its tree entries.  How a router forwards data is its own: each keeps its
``_on_multicast_data`` and its ``*Stats`` class (whose field order is the
stored ``protocol_stats`` key order).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.multicast.messages import DuplicateCache, MulticastData
from repro.net.addressing import GroupAddress, NodeId
from repro.net.node import Node
from repro.routing.aodv import AodvRouter

DataListener = Callable[[MulticastData], None]

# Parameters of every multicast router.  README's "Model parameters" table
# gives each value's source.

#: TTL of every flood: MAODV's group hellos and join requests, flooded data
#: (flooding baseline) and join queries (ODMRP).
FLOOD_TTL = 16
#: Link-layer header accounted for multicast data (the payload size comes
#: from the application).
DATA_HEADER_BYTES = 20
#: Size of the (source, seq) duplicate-suppression cache for data.
DATA_CACHE_SIZE = 4096


class MulticastRouter:
    """One node's multicast agent: the part every protocol shares.

    A subclass names its :attr:`stream`, passes its own stats object and
    defines ``_on_multicast_data``, the handler registered here for data.
    """

    #: Name of the router's per-node random stream.
    stream = ""

    def __init__(self, node: Node, aodv: AodvRouter, stats) -> None:
        self.node = node
        self.sim = node.sim
        self.aodv = aodv
        #: Identifier of the owning node.
        self.node_id: NodeId = node.node_id
        self.rng = node.streams.for_node(self.stream, node.node_id)
        self.stats = stats
        self._data_seq: Dict[GroupAddress, int] = {}
        self._seen_data = DuplicateCache(DATA_CACHE_SIZE)
        self._delivery_listeners: List[DataListener] = []
        self._members: Dict[GroupAddress, bool] = {}
        node.register_handler(MulticastData, self._on_multicast_data)

    def add_delivery_listener(self, listener: DataListener) -> None:
        """Subscribe to multicast data delivered to this node as a member."""
        self._delivery_listeners.append(listener)

    # -------------------------------------------------------------- membership
    def is_member(self, group: GroupAddress) -> bool:
        """True when this node joined ``group``."""
        return self._members.get(group, False)

    def join_group(self, group: GroupAddress) -> None:
        """Join ``group`` as a member."""
        self._members[group] = True

    def leave_group(self, group: GroupAddress) -> None:
        """Leave ``group``."""
        self._members.pop(group, None)

    def nearest_member_via(self, group: GroupAddress, neighbor: NodeId) -> int:
        """Without member-distance annotations every neighbour reads as near."""
        return 1

    # --------------------------------------------------------------- data plane
    def _originate(self, group: GroupAddress, size_bytes: int, **fields) -> MulticastData:
        """Number, build, count and remember this node's next data packet to
        ``group`` (``fields`` add to the packet's); a member source delivers
        it to itself."""
        seq = self._data_seq.get(group, 0) + 1
        self._data_seq[group] = seq
        data = MulticastData(
            origin=self.node_id,
            destination=group,
            size_bytes=size_bytes + DATA_HEADER_BYTES,
            group=group,
            source=self.node_id,
            seq=seq,
            sent_at=self.sim.now,
            **fields,
        )
        self.stats.data_originated += 1
        self._seen_data.remember(data.mid)
        if self.is_member(group):
            self._deliver(data)
        return data

    def _deliver(self, data: MulticastData) -> None:
        self.stats.data_delivered += 1
        for listener in self._delivery_listeners:
            listener(data)
