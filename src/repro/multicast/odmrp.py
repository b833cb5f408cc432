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

The router is a :class:`~repro.multicast.router.MulticastRouter`, with the
surface MAODV has (`join_group`, `send_data`, `add_delivery_listener`,
`tree_neighbors`, ...), so the gossip layer, the workload and the metrics run
over it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.multicast.messages import MulticastData
from repro.multicast.router import FLOOD_TTL, MulticastRouter
from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId
from repro.net.node import Node
from repro.net.packet import Packet, SeenCache
from repro.routing.aodv import AodvRouter
from repro.sim.timers import PeriodicTimer

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
    #: ``(source, group, query_seq)``, built once and shared.
    flood_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.flood_key = (self.source, self.group, self.query_seq)


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


class OdmrpRouter(MulticastRouter):
    """ODMRP multicast agent for a single node."""

    stream = "odmrp"

    def __init__(self, node: Node, aodv: AodvRouter):
        super().__init__(node, aodv, OdmrpStats())
        self._query_seq = 0
        self._query_timers: Dict[GroupAddress, PeriodicTimer] = {}
        #: (group, source) -> reverse-path state from the latest join query.
        self._routes: Dict[Tuple[GroupAddress, NodeId], _SourceRoute] = {}
        #: group -> simulation time until which this node is a forwarder.
        self._forwarding_until: Dict[GroupAddress, float] = {}
        self._seen_queries = SeenCache(60.0)

        node.register_handler(JoinQuery, self._on_join_query)
        node.register_handler(OdmrpJoinReply, self._on_join_reply)

    # ------------------------------------------------------------------ basics
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

    # --------------------------------------------------------------- data plane
    def send_data(self, group: GroupAddress, size_bytes: int = 64) -> MulticastData:
        """Originate one multicast data packet to ``group``.

        The first transmission turns this node into an active source: it
        starts the periodic join-query floods that build and refresh the
        forwarding mesh.
        """
        self._ensure_source(group)
        data = self._originate(group, size_bytes)
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
            self.node.broadcast_jittered(data, self.rng)

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
            forwarded = query.forwarded(ttl=query.ttl - 1, hop_count=query.hop_count + 1)
            self.stats.queries_forwarded += 1
            self.node.broadcast_jittered(forwarded, self.rng)

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

