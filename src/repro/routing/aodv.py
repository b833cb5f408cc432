"""The AODV unicast router.

One :class:`AodvRouter` instance is attached to every node.  It provides

* on-demand route discovery (RREQ flood / RREP unicast),
* hop-by-hop forwarding of :class:`~repro.net.packet.UnicastData` envelopes,
* hello-beacon neighbour sensing with loss detection,
* RERR propagation and route invalidation on link breaks,
* an upper-layer API: :meth:`send_unicast`, :meth:`add_delivery_listener`,
  :meth:`add_neighbor_loss_listener`.

The gossip layer sends gossip replies and cached-gossip requests through
:meth:`send_unicast`; MAODV subscribes to neighbour-loss events to detect
broken tree links.

There is no HELLO handler.  HELLOs are most of what a node decodes and each
only refreshes a one-hop route that the neighbour's next beacon refreshes
again, so the router registers the route table's *mailbox* for
:class:`~repro.routing.messages.HelloMessage` (``Node.register_mailbox``): a
reception is one dict store, and the table applies the last receipt per
neighbour when it is next read or written -- see
:mod:`repro.routing.route_table` for why that is the same protocol.  The
obligation it puts on this class: reach the table only through its methods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List

from repro.net.addressing import BROADCAST_ADDRESS, NodeId
from repro.net.node import Node
from repro.net.packet import Packet, SeenCache, UnicastData
from repro.routing.messages import HelloMessage, RouteError, RouteReply, RouteRequest
from repro.routing.route_table import RouteTable
from repro.sim.timers import PeriodicTimer

DeliveryListener = Callable[[Packet, NodeId], None]
NeighborLossListener = Callable[[NodeId], None]

# Protocol parameters: the paper's simulation settings where it gives them
# (hello interval 600 ms, allowed hello loss 4).  README's "Model
# parameters" table gives each value's source.

#: Interval between hello beacons (the paper uses 600 ms).
HELLO_INTERVAL_S = 0.6
#: Number of consecutive missed hellos after which a neighbour is declared
#: lost (the paper uses 4).
ALLOWED_HELLO_LOSS = 4
#: Silence interval after which a neighbour is considered gone.
NEIGHBOR_TIMEOUT_S = HELLO_INTERVAL_S * ALLOWED_HELLO_LOSS
#: Lifetime of an active route without traffic.
ACTIVE_ROUTE_TIMEOUT_S = 10.0
#: Initial TTL of a route request, its increment on each retry, and its cap.
RREQ_INITIAL_TTL = 8
RREQ_TTL_INCREMENT = 8
RREQ_MAX_TTL = 32
#: Number of times a route request is retried before giving up.
RREQ_RETRIES = 2
#: Time to wait for a route reply before retrying the request.
ROUTE_DISCOVERY_TIMEOUT_S = 1.0
#: How long an (origin, rreq_id) pair is remembered for duplicate suppression.
RREQ_ID_CACHE_S = 5.0
#: Maximum number of data packets buffered while waiting for a route.
PACKET_BUFFER_LIMIT = 64
#: Wire sizes (bytes) of the control messages.
RREQ_SIZE_BYTES = 24
RREP_SIZE_BYTES = 20
RERR_SIZE_BYTES = 20
HELLO_SIZE_BYTES = 12


class AodvStats:
    """Per-node AODV counters."""

    def __init__(self) -> None:
        self.rreq_originated = 0
        self.rreq_forwarded = 0
        self.rrep_originated = 0
        self.rrep_forwarded = 0
        self.rerr_sent = 0
        self.hello_sent = 0
        self.data_originated = 0
        self.data_forwarded = 0
        self.data_delivered = 0
        self.data_dropped_no_route = 0
        self.discovery_failures = 0
        self.neighbor_losses = 0


@dataclass(eq=False, repr=False)
class _PendingDiscovery:
    """State of an in-progress route discovery."""

    destination: NodeId
    retries: int = 0
    ttl: int = 0
    buffered: Deque[UnicastData] = field(default_factory=deque)


class AodvRouter:
    """AODV routing agent for a single node."""

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self.rng = node.streams.for_node("aodv", node.node_id)
        self.stats = AodvStats()
        self.route_table = RouteTable(hello_lifetime_s=NEIGHBOR_TIMEOUT_S)

        self.sequence_number = 0
        self._rreq_id = 0
        self._seen_rreqs = SeenCache(RREQ_ID_CACHE_S)
        self._pending: Dict[NodeId, _PendingDiscovery] = {}
        #: Neighbour -> time last heard: the node's liveness table itself
        #: (node and medium write it per packet received; this class reads,
        #: and deletes on loss).  Its order is ``_check_neighbors``' order.
        self._neighbors: Dict[NodeId, float] = node.heard
        self._delivery_listeners: List[DeliveryListener] = []
        self._neighbor_loss_listeners: List[NeighborLossListener] = []

        node.register_handler(RouteRequest, self._on_rreq)
        node.register_handler(RouteReply, self._on_rrep)
        node.register_handler(RouteError, self._on_rerr)
        node.register_mailbox(HelloMessage, self.route_table.hellos)
        node.register_handler(UnicastData, self._on_unicast_data)
        node.add_link_failure_listener(self._on_mac_failure)

        self._hello_timer = PeriodicTimer(
            self.sim,
            HELLO_INTERVAL_S,
            self._send_hello,
            delay=self.rng.uniform(0.0, HELLO_INTERVAL_S),
            jitter=HELLO_INTERVAL_S * 0.1,
            rng=self.rng,
        )
        self._neighbor_timer = PeriodicTimer(
            self.sim,
            HELLO_INTERVAL_S,
            self._check_neighbors,
            delay=NEIGHBOR_TIMEOUT_S,
        )

    # ------------------------------------------------------------------ setup
    @property
    def node_id(self) -> NodeId:
        """Identifier of the owning node."""
        return self.node.node_id

    def start(self) -> None:
        """Start hello beaconing and neighbour monitoring."""
        self._hello_timer.start()
        self._neighbor_timer.start()

    def stop(self) -> None:
        """Stop the periodic timers."""
        self._hello_timer.stop()
        self._neighbor_timer.stop()

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Subscribe to payloads delivered to this node via unicast envelopes."""
        self._delivery_listeners.append(listener)

    def add_neighbor_loss_listener(self, listener: NeighborLossListener) -> None:
        """Subscribe to neighbour-loss events (hello timeouts and MAC failures)."""
        self._neighbor_loss_listeners.append(listener)

    # ------------------------------------------------------------- public API
    def neighbors(self) -> List[NodeId]:
        """Neighbours heard from within the neighbour timeout."""
        now = self.sim.now
        timeout = NEIGHBOR_TIMEOUT_S
        return sorted(n for n, last in self._neighbors.items() if now - last <= timeout)

    def has_route(self, destination: NodeId) -> bool:
        """True when a usable route to ``destination`` exists right now."""
        if destination == self.node_id:
            return True
        return self.route_table.lookup(destination, self.sim.now) is not None

    def send_unicast(self, payload: Packet, destination: NodeId) -> None:
        """Send ``payload`` to ``destination``, discovering a route if needed."""
        self.stats.data_originated += 1
        envelope = UnicastData(
            origin=self.node_id,
            destination=destination,
            payload=payload,
            ttl=RREQ_MAX_TTL,
        )
        if destination == self.node_id:
            self._deliver_locally(envelope)
            return
        self._forward_or_discover(envelope)

    # ------------------------------------------------------------ hello layer
    def _send_hello(self) -> None:
        self.stats.hello_sent += 1
        hello = HelloMessage(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=HELLO_SIZE_BYTES,
            seq=self.sequence_number,
        )
        self.node.send_frame(hello, BROADCAST_ADDRESS)

    def _check_neighbors(self) -> None:
        now = self.sim.now
        timeout = NEIGHBOR_TIMEOUT_S
        lost = [n for n, last in self._neighbors.items() if now - last > timeout]
        for neighbor in lost:
            del self._neighbors[neighbor]
            self._handle_broken_link(neighbor)

    def _on_mac_failure(self, packet: Packet, next_hop: NodeId) -> None:
        # A unicast retry limit was exceeded: treat the link as broken.
        if next_hop in self._neighbors:
            del self._neighbors[next_hop]
        self._handle_broken_link(next_hop)

    def _handle_broken_link(self, neighbor: NodeId) -> None:
        self.stats.neighbor_losses += 1
        broken = self.route_table.invalidate_through(neighbor)
        if broken:
            self._send_rerr({entry.destination: entry.seq for entry in broken})
        for listener in self._neighbor_loss_listeners:
            listener(neighbor)

    # --------------------------------------------------------- route discovery
    def _forward_or_discover(self, envelope: UnicastData) -> None:
        route = self.route_table.lookup(envelope.destination, self.sim.now)
        if route is not None:
            self._forward_envelope(envelope, route.next_hop)
            return
        self._buffer_and_discover(envelope)

    def _buffer_and_discover(self, envelope: UnicastData) -> None:
        destination = envelope.destination
        pending = self._pending.get(destination)
        if pending is None:
            pending = _PendingDiscovery(destination=destination, ttl=RREQ_INITIAL_TTL)
            self._pending[destination] = pending
            self._originate_rreq(pending)
        if len(pending.buffered) >= PACKET_BUFFER_LIMIT:
            self.stats.data_dropped_no_route += 1
            return
        pending.buffered.append(envelope)

    def _originate_rreq(self, pending: _PendingDiscovery) -> None:
        self.sequence_number += 1
        self._rreq_id += 1
        self.stats.rreq_originated += 1
        known = self.route_table.entry(pending.destination)
        rreq = RouteRequest(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=RREQ_SIZE_BYTES,
            ttl=pending.ttl,
            target=pending.destination,
            target_seq=known.seq if known is not None else 0,
            target_seq_known=known is not None,
            origin_seq=self.sequence_number,
            rreq_id=self._rreq_id,
            hop_count=0,
        )
        self._seen_rreqs.mark(rreq.flood_key, self.sim.now)
        self.node.send_frame(rreq, BROADCAST_ADDRESS)
        self.sim.call_in(
            ROUTE_DISCOVERY_TIMEOUT_S, self._discovery_timeout, (pending.destination,)
        )

    def _discovery_timeout(self, destination: NodeId) -> None:
        pending = self._pending.get(destination)
        if pending is None:
            return
        if self.route_table.lookup(destination, self.sim.now) is not None:
            self._flush_pending(destination)
            return
        if pending.retries >= RREQ_RETRIES:
            self.stats.discovery_failures += 1
            self.stats.data_dropped_no_route += len(pending.buffered)
            del self._pending[destination]
            return
        pending.retries += 1
        pending.ttl = min(pending.ttl + RREQ_TTL_INCREMENT, RREQ_MAX_TTL)
        self._originate_rreq(pending)

    def _flush_pending(self, destination: NodeId) -> None:
        pending = self._pending.pop(destination, None)
        if pending is None:
            return
        route = self.route_table.lookup(destination, self.sim.now)
        while pending.buffered:
            envelope = pending.buffered.popleft()
            if route is None:
                self.stats.data_dropped_no_route += 1
                continue
            self._forward_envelope(envelope, route.next_hop)

    # --------------------------------------------------------------- handlers
    def _on_rreq(self, rreq: RouteRequest, from_node: NodeId) -> None:
        now = self.sim.now
        if not self._seen_rreqs.first_sight(rreq.flood_key, now):
            return

        hop_count = rreq.hop_count + 1
        # Install / refresh the reverse route towards the originator.
        self.route_table.update(
            destination=rreq.origin,
            next_hop=from_node,
            hop_count=hop_count,
            seq=rreq.origin_seq,
            expiry_time=now + ACTIVE_ROUTE_TIMEOUT_S,
        )
        self._flush_pending_if_routable(rreq.origin)

        if rreq.target == self.node_id:
            self.sequence_number = max(self.sequence_number, rreq.target_seq) + 1
            self._send_rrep(rreq.origin, self.node_id, self.sequence_number, 0, from_node)
            return

        route = self.route_table.lookup(rreq.target, now)
        if (
            route is not None
            and rreq.target_seq_known
            and route.seq >= rreq.target_seq
        ):
            # Intermediate node with a fresh-enough route replies on behalf of
            # the target.
            self._send_rrep(rreq.origin, rreq.target, route.seq, route.hop_count, from_node)
            return

        if rreq.ttl <= 1:
            return
        forwarded = rreq.forwarded(ttl=rreq.ttl - 1, hop_count=hop_count)
        self.stats.rreq_forwarded += 1
        self.node.broadcast_jittered(forwarded, self.rng)

    def _send_rrep(
        self,
        requester: NodeId,
        target: NodeId,
        target_seq: int,
        hop_count_to_target: int,
        next_hop: NodeId,
    ) -> None:
        self.stats.rrep_originated += 1
        rrep = RouteReply(
            origin=self.node_id,
            destination=requester,
            size_bytes=RREP_SIZE_BYTES,
            target=target,
            target_seq=target_seq,
            hop_count=hop_count_to_target,
            lifetime_s=ACTIVE_ROUTE_TIMEOUT_S,
        )
        self.node.send_frame(rrep, next_hop)

    def _on_rrep(self, rrep: RouteReply, from_node: NodeId) -> None:
        now = self.sim.now
        hop_count = rrep.hop_count + 1
        # Install / refresh the forward route towards the target.
        self.route_table.update(
            destination=rrep.target,
            next_hop=from_node,
            hop_count=hop_count,
            seq=rrep.target_seq,
            expiry_time=now + rrep.lifetime_s,
        )
        self._flush_pending_if_routable(rrep.target)

        if rrep.destination == self.node_id:
            return
        # Forward the RREP towards the requester along the reverse route.
        reverse = self.route_table.lookup(rrep.destination, now)
        if reverse is None:
            return
        forwarded = rrep.forwarded(hop_count=hop_count)
        self.stats.rrep_forwarded += 1
        self.node.send_frame(forwarded, reverse.next_hop)

    def _flush_pending_if_routable(self, destination: NodeId) -> None:
        if destination in self._pending and self.route_table.lookup(destination, self.sim.now):
            self._flush_pending(destination)

    def _send_rerr(self, unreachable: Dict[NodeId, int]) -> None:
        if not unreachable:
            return
        self.stats.rerr_sent += 1
        rerr = RouteError(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=RERR_SIZE_BYTES,
            unreachable=dict(unreachable),
        )
        self.node.send_frame(rerr, BROADCAST_ADDRESS)

    def _on_rerr(self, rerr: RouteError, from_node: NodeId) -> None:
        invalidated: Dict[NodeId, int] = {}
        for destination, seq in rerr.unreachable.items():
            entry = self.route_table.entry(destination)
            if entry is not None and entry.valid and entry.next_hop == from_node:
                self.route_table.invalidate(destination)
                invalidated[destination] = max(entry.seq, seq)
        if invalidated:
            self._send_rerr(invalidated)

    # ------------------------------------------------------------- data plane
    def _on_unicast_data(self, envelope: UnicastData, from_node: NodeId) -> None:
        if envelope.destination == self.node_id:
            self._deliver_locally(envelope)
            return
        if envelope.ttl <= 0:
            self.stats.data_dropped_no_route += 1
            return
        forwarded = envelope.forwarded(ttl=envelope.ttl - 1, uid=envelope.uid)
        self.stats.data_forwarded += 1
        self._forward_or_discover(forwarded)

    def _forward_envelope(self, envelope: UnicastData, next_hop: NodeId) -> None:
        self.route_table.refresh(
            envelope.destination, self.sim.now + ACTIVE_ROUTE_TIMEOUT_S
        )
        self.node.send_frame(envelope, next_hop)

    def _deliver_locally(self, envelope: UnicastData) -> None:
        self.stats.data_delivered += 1
        payload = envelope.payload
        if payload is None:
            return
        for listener in self._delivery_listeners:
            listener(payload, envelope.origin)
        # KNOWN DEVIATION (in the digest; ROADMAP direction 1(b); pinned in
        # tests/routing/test_aodv.py): the node records ``from_node`` as heard,
        # so a *multi-hop* origin enters the one-hop neighbour table here and
        # later times out as a phantom neighbour loss.
        self.node.deliver(payload, envelope.origin)
