"""ODMRP: On-Demand Multicast Routing Protocol (mesh-based baseline).

The paper singles out ODMRP as the mesh-based alternative to MAODV and
suggests Anonymous Gossip can be layered over it unchanged.  This module
implements the protocol's core soft-state mesh mechanism:

* While a source has data to send it periodically floods a **join query**;
  every node remembers its upstream towards the source (reverse path).
* Group members answer with a **join reply** naming that upstream; a node
  hearing a join reply that names *it* becomes part of the **forwarding
  group** for a soft-state lifetime and propagates its own join reply
  towards the source.
* Data packets are broadcast; forwarding-group members rebroadcast
  non-duplicate packets, members deliver them.

Because several replies travel along different reverse paths, the forwarding
group forms a mesh (redundant paths) rather than a tree, which is what gives
ODMRP its robustness at the cost of extra forwarding -- the trade-off the
paper describes.

The router exposes the same surface as :class:`~repro.multicast.maodv.MaodvRouter`
(`join_group`, `send_data`, `add_delivery_listener`, `tree_neighbors`, ...)
so the gossip layer, the workload and the metrics run over it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.multicast.maodv import DATA_CACHE_SIZE, DATA_HEADER_BYTES, FLOOD_TTL
from repro.multicast.messages import DuplicateCache, MulticastData
from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId
from repro.net.node import Node
from repro.net.packet import Packet, SeenCache
from repro.routing.aodv import BROADCAST_JITTER_S, AodvRouter
from repro.sim.timers import PeriodicTimer

DataListener = Callable[[MulticastData], None]

#: Interval between join-query floods while a source is active.
JOIN_QUERY_INTERVAL_S = 3.0
#: Soft-state lifetime of the forwarding-group flag (the classic value is
#: three times the query interval).
FORWARDING_LIFETIME_S = 9.0
#: Wire sizes (bytes) of the control messages.
JOIN_QUERY_SIZE_BYTES = 20
JOIN_REPLY_SIZE_BYTES = 20


@dataclass(eq=False, repr=False)
class JoinQuery(Packet):
    """Periodic source-rooted flood refreshing routes towards the source."""

    group: GroupAddress = -1
    source: NodeId = -1
    query_seq: int = 0
    hop_count: int = 0
    #: ``(source, group, query_seq)``, built once and passed on.
    flood_key: tuple = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        if self.flood_key is None:
            self.flood_key = (self.source, self.group, self.query_seq)

    def key(self) -> tuple:
        """Duplicate-suppression key."""
        return self.flood_key


@dataclass(eq=False, repr=False)
class OdmrpJoinReply(Packet):
    """Member/forwarder announcement selecting ``upstream`` towards a source."""

    group: GroupAddress = -1
    source: NodeId = -1
    #: The neighbour this reply selects as the next forwarder towards the
    #: source; only that neighbour reacts to the reply.
    upstream: NodeId = -1
    query_seq: int = 0

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.ttl = 1


class OdmrpStats:
    """Per-node ODMRP counters."""

    def __init__(self) -> None:
        self.queries_sent = 0
        self.queries_forwarded = 0
        self.replies_sent = 0
        self.data_originated = 0
        self.data_forwarded = 0
        self.data_delivered = 0
        self.data_duplicates = 0
        self.forwarding_group_joins = 0


@dataclass(eq=False, repr=False)
class _SourceRoute:
    """Reverse-path state towards one multicast source."""

    upstream: NodeId
    query_seq: int
    hop_count: int


class OdmrpRouter:
    """ODMRP multicast agent for a single node."""

    def __init__(self, node: Node, aodv: AodvRouter):
        self.node = node
        self.sim = node.sim
        self.aodv = aodv
        self.rng = node.streams.for_node("odmrp", node.node_id)
        self.stats = OdmrpStats()

        self._members: Dict[GroupAddress, bool] = {}
        self._data_seq: Dict[GroupAddress, int] = {}
        self._query_seq = 0
        self._query_timers: Dict[GroupAddress, PeriodicTimer] = {}
        #: (group, source) -> reverse-path state from the latest join query.
        self._routes: Dict[Tuple[GroupAddress, NodeId], _SourceRoute] = {}
        #: group -> simulation time until which this node is a forwarder.
        self._forwarding_until: Dict[GroupAddress, float] = {}
        self._seen_queries = SeenCache(60.0)
        self._seen_data = DuplicateCache(DATA_CACHE_SIZE)
        self._delivery_listeners: List[DataListener] = []

        node.register_handler(MulticastData, self._on_multicast_data)
        node.register_handler(JoinQuery, self._on_join_query)
        node.register_handler(OdmrpJoinReply, self._on_join_reply)

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

    def is_forwarder(self, group: GroupAddress) -> bool:
        """True while this node's forwarding-group flag is fresh."""
        return self._forwarding_until.get(group, 0.0) > self.sim.now

    def is_on_tree(self, group: GroupAddress) -> bool:
        """ODMRP's "tree" is the mesh: members and current forwarders."""
        return self.is_member(group) or self.is_forwarder(group)

    def tree_neighbors(self, group: GroupAddress) -> List[NodeId]:
        """Mesh next hops usable by the gossip layer.

        ODMRP keeps per-source upstream pointers rather than explicit tree
        links; the reverse-path upstreams of the group are the neighbours
        known to lead towards the mesh.
        """
        upstreams = {
            route.upstream
            for (route_group, _), route in self._routes.items()
            if route_group == group
        }
        return sorted(upstreams)

    def nearest_member_via(self, group: GroupAddress, neighbor: NodeId) -> int:
        """The mesh carries no member-distance annotations; treat all as near."""
        return 1

    # -------------------------------------------------------------- membership
    def join_group(self, group: GroupAddress) -> None:
        """Join ``group`` as a member."""
        self._members[group] = True

    def leave_group(self, group: GroupAddress) -> None:
        """Leave ``group``; forwarding state times out on its own."""
        self._members.pop(group, None)

    # --------------------------------------------------------------- data plane
    def send_data(self, group: GroupAddress, size_bytes: int = 64) -> MulticastData:
        """Originate one multicast data packet to ``group``.

        The first transmission turns this node into an active source: it
        starts the periodic join-query floods that build and refresh the
        forwarding mesh.
        """
        self._ensure_source(group)
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
        )
        self.stats.data_originated += 1
        self._seen_data.remember(data.mid)
        if self.is_member(group):
            self._deliver(data)
        self.node.send_frame(data, BROADCAST_ADDRESS)
        return data

    def _on_multicast_data(self, data: MulticastData, from_node: NodeId) -> None:
        key = data.mid
        if key in self._seen_data:
            self.stats.data_duplicates += 1
            return
        self._seen_data.remember(key)
        if self.is_member(data.group):
            self._deliver(data)
        if self.is_forwarder(data.group):
            self.stats.data_forwarded += 1
            self._broadcast_jittered(data)

    def _deliver(self, data: MulticastData) -> None:
        self.stats.data_delivered += 1
        for listener in self._delivery_listeners:
            listener(data)

    # ------------------------------------------------------------- mesh building
    def _ensure_source(self, group: GroupAddress) -> None:
        if group in self._query_timers:
            return
        timer = PeriodicTimer(
            self.sim,
            JOIN_QUERY_INTERVAL_S,
            lambda g=group: self._send_join_query(g),
        )
        self._query_timers[group] = timer
        timer.start()

    def stop_source(self, group: GroupAddress) -> None:
        """Stop refreshing the mesh for ``group`` (the source went quiet)."""
        timer = self._query_timers.pop(group, None)
        if timer is not None:
            timer.stop()

    def _send_join_query(self, group: GroupAddress) -> None:
        self._query_seq += 1
        self.stats.queries_sent += 1
        query = JoinQuery(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=JOIN_QUERY_SIZE_BYTES,
            ttl=FLOOD_TTL,
            group=group,
            source=self.node_id,
            query_seq=self._query_seq,
            hop_count=0,
        )
        self._seen_queries.mark(query.flood_key, self.sim.now)
        self.node.send_frame(query, BROADCAST_ADDRESS)

    def _on_join_query(self, query: JoinQuery, from_node: NodeId) -> None:
        if query.source == self.node_id:
            return
        if not self._seen_queries.first_sight(query.flood_key, self.sim.now):
            return

        self._routes[(query.group, query.source)] = _SourceRoute(
            upstream=from_node, query_seq=query.query_seq, hop_count=query.hop_count + 1
        )
        if self.is_member(query.group):
            self._send_join_reply(query.group, query.source, from_node, query.query_seq)
        if query.ttl > 1:
            forwarded = JoinQuery(
                origin=query.origin,
                destination=BROADCAST_ADDRESS,
                size_bytes=query.size_bytes,
                ttl=query.ttl - 1,
                group=query.group,
                source=query.source,
                query_seq=query.query_seq,
                hop_count=query.hop_count + 1,
                flood_key=query.flood_key,
            )
            self.stats.queries_forwarded += 1
            self._broadcast_jittered(forwarded)

    def _send_join_reply(
        self, group: GroupAddress, source: NodeId, upstream: NodeId, query_seq: int
    ) -> None:
        self.stats.replies_sent += 1
        reply = OdmrpJoinReply(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=JOIN_REPLY_SIZE_BYTES,
            group=group,
            source=source,
            upstream=upstream,
            query_seq=query_seq,
        )
        self.node.send_frame(reply, BROADCAST_ADDRESS)

    def _on_join_reply(self, reply: OdmrpJoinReply, from_node: NodeId) -> None:
        if reply.upstream != self.node_id:
            return
        # This node was selected as a forwarder towards the source: refresh
        # the soft-state flag and propagate the reply towards the source.
        was_forwarder = self.is_forwarder(reply.group)
        self._forwarding_until[reply.group] = self.sim.now + FORWARDING_LIFETIME_S
        if not was_forwarder:
            self.stats.forwarding_group_joins += 1
        if reply.source == self.node_id:
            return
        route = self._routes.get((reply.group, reply.source))
        if route is not None:
            self._send_join_reply(reply.group, reply.source, route.upstream, reply.query_seq)

    # ----------------------------------------------------------------- helpers
    def _broadcast_jittered(self, packet: Packet) -> None:
        jitter = self.rng.uniform(0.0, BROADCAST_JITTER_S)
        self.sim.call_in(jitter, self.node.send_frame, (packet, BROADCAST_ADDRESS))
