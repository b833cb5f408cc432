"""The Anonymous Gossip agent.

One :class:`GossipAgent` is attached to every node that participates in the
multicast tree.  Group members run the full protocol (periodic gossip rounds,
lost/history/member-cache state); pure routers only take part in the
anonymous propagation of gossip requests along the tree.

The agent implements the paper's four design answers:

* **Anonymous gossip** (4.1): a request is handed to a random tree next hop;
  every router forwards it to a random next hop excluding the one it arrived
  from; a member receiving it flips a coin between accepting and forwarding.
* **Locality** (4.2): next hops with a smaller nearest-member distance are
  chosen with proportionally higher probability.
* **Cached gossip** (4.3): with probability ``1 - p_anon`` the request is
  unicast straight to a member learned opportunistically into the member
  cache.
* **Pull exchange** (4.4): the request carries the lost buffer and expected
  sequence numbers; the accepting member answers with any matching packets
  from its history table, unicast back to the initiator.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.core.config import GossipConfig
from repro.core.history import HistoryTable
from repro.core.lost_table import INITIAL_EXPECTED_SEQ, LostTable
from repro.core.member_cache import MemberCache
from repro.core.messages import GossipReply, GossipRequest
from repro.multicast.messages import MulticastData
from repro.net.addressing import GroupAddress, NodeId
from repro.net.node import Node
from repro.routing.aodv import AodvRouter
from repro.sim.timers import PeriodicTimer

RecoveryListener = Callable[[MulticastData], None]

#: Hop-count estimate recorded in the member cache when no unicast route to
#: the member is known.
_UNKNOWN_HOPS = 8

#: Probability that a member receiving an anonymous gossip request accepts
#: it rather than propagating it further (section 4.1).
ACCEPT_PROBABILITY = 0.5
#: Tree hops an anonymous gossip request may travel.
MAX_GOSSIP_HOPS = 16
#: Recovered messages returned in one gossip reply.
MAX_MESSAGES_PER_REPLY = 10
#: Wire-size model of the gossip messages.
REQUEST_BASE_SIZE_BYTES = 20
REQUEST_PER_LOST_ENTRY_BYTES = 6
REPLY_BASE_SIZE_BYTES = 16


class GossipGroupDispatcher:
    """Per-node demultiplexer routing gossip packets to their group's agent.

    A node can carry one :class:`GossipAgent` per multicast group, but only
    one packet handler per packet type can be registered on the node.  The
    dispatcher registers the :class:`GossipRequest` / :class:`GossipReply`
    handlers exactly once per node and forwards each packet to the agent of
    ``packet.group``; packets of groups without a local agent are dropped
    silently, exactly as a lone agent used to drop foreign-group packets.
    """

    def __init__(self, node: Node):
        self._agents: Dict[GroupAddress, "GossipAgent"] = {}
        node.register_handler(GossipRequest, self._on_request)
        node.register_handler(GossipReply, self._on_reply)

    @classmethod
    def for_node(cls, node: Node) -> "GossipGroupDispatcher":
        """The node's dispatcher, created (and registered) on first use."""
        dispatcher = getattr(node, "gossip_dispatcher", None)
        if dispatcher is None:
            dispatcher = cls(node)
            node.gossip_dispatcher = dispatcher
        return dispatcher

    def register(self, group: GroupAddress, agent: "GossipAgent") -> None:
        """Attach ``agent`` as the handler of ``group``'s gossip packets."""
        if group in self._agents:
            raise ValueError(f"node already has a gossip agent for group {group}")
        self._agents[group] = agent

    def agent_for(self, group: GroupAddress) -> Optional["GossipAgent"]:
        """The agent handling ``group`` on this node, if any."""
        return self._agents.get(group)

    def _on_request(self, request: GossipRequest, from_node: NodeId) -> None:
        agent = self._agents.get(request.group)
        if agent is not None:
            agent._on_request(request, from_node)

    def _on_reply(self, reply: GossipReply, from_node: NodeId) -> None:
        agent = self._agents.get(reply.group)
        if agent is not None:
            agent._on_reply(reply, from_node)


class GossipStats:
    """Per-node gossip counters (goodput is derived from the reply counters)."""

    def __init__(self) -> None:
        self.rounds = 0
        self.anonymous_requests_sent = 0
        self.cached_requests_sent = 0
        self.rounds_skipped_no_neighbor = 0
        self.requests_forwarded = 0
        self.requests_accepted = 0
        self.requests_dropped = 0
        self.replies_sent = 0
        self.reply_messages_sent = 0
        self.replies_received = 0
        self.reply_messages_received = 0
        self.recovered_messages = 0
        self.duplicate_messages = 0

    @property
    def goodput_percent(self) -> float:
        """Percentage of non-duplicate messages among gossip-reply messages.

        This is the paper's goodput metric (Fig. 8).  Returns 100.0 when no
        reply message has been received yet.
        """
        total = self.recovered_messages + self.duplicate_messages
        if total == 0:
            return 100.0
        return 100.0 * self.recovered_messages / total


class GossipAgent:
    """Anonymous Gossip for one node and one multicast group."""

    def __init__(
        self,
        node: Node,
        multicast,
        aodv: AodvRouter,
        group: GroupAddress,
        config: Optional[GossipConfig] = None,
        *,
        rng=None,
    ):
        self.node = node
        self.sim = node.sim
        self.multicast = multicast
        self.aodv = aodv
        self.group = group
        #: Identifier of the owning node.
        self.node_id: NodeId = node.node_id
        self.config = config or GossipConfig()
        self.rng = rng if rng is not None else node.streams.for_node("gossip", node.node_id)
        self.stats = GossipStats()

        self.lost_table = LostTable()
        self.history = HistoryTable(capacity=self.config.history_size)
        self.member_cache = MemberCache()
        self._recovery_listeners: List[RecoveryListener] = []
        #: Start of the current subscription; ``None`` for run-long members.
        #: Carried on requests so responders can serve exactly the post-join
        #: suffix (data packets are stamped with their send time).
        self._joined_at: Optional[float] = None

        GossipGroupDispatcher.for_node(node).register(group, self)
        multicast.add_delivery_listener(self._on_multicast_delivery)

        self._timer = PeriodicTimer(
            self.sim,
            self.config.gossip_interval_s,
            self._gossip_round,
            delay=self.rng.uniform(0.0, self.config.gossip_interval_s),
            jitter=self.config.gossip_interval_s * 0.05,
            rng=self.rng,
        )

    # ------------------------------------------------------------------ basics
    @property
    def is_member(self) -> bool:
        """True while the owning node is a member of the gossip group."""
        return self.multicast.is_member(self.group)

    def add_recovery_listener(self, listener: RecoveryListener) -> None:
        """Subscribe to messages recovered through gossip replies."""
        self._recovery_listeners.append(listener)

    def start(self) -> None:
        """Start periodic gossip rounds (only members actually gossip)."""
        self._timer.start()

    # -------------------------------------------------------- membership churn
    def on_membership_join(self) -> None:
        """Start a fresh membership epoch after a *mid-run* join.

        The agent drops any recovery state from a previous subscription and
        switches to no-credit-for-the-past mode: the new lost table baselines
        every source at the first packet observed after the join, and gossip
        requests go out with the join time, so packets multicast before the
        join are neither recorded as lost nor served by responders.

        Data packets carry their send time, so a responder *can* separate
        "sent before the join" from "sent after the join but never
        delivered": it serves the joiner the post-join suffix of its history
        (every message with ``sent_at >= joined_at``), including messages
        from sources the joiner has never heard from.  Gossip's cut-off
        self-healing therefore works from the first post-join gossip round
        onwards, even before the joiner's first direct reception.
        """
        self.lost_table = LostTable(baseline_first_observation=True)
        self.history = HistoryTable(capacity=self.config.history_size)
        self._joined_at = self.sim.now

    def on_membership_leave(self) -> None:
        """Drop member state on leave.

        Gossip rounds stop on their own (``is_member`` turns False once the
        multicast layer processes the leave) and ``_accept`` already refuses
        to serve pulls for non-members; clearing the tables models a leaver
        that also discards its buffered history rather than serving stale
        replies after a quick re-join.
        """
        self.lost_table = LostTable()
        self.history = HistoryTable(capacity=self.config.history_size)
        self.member_cache = MemberCache()

    # ------------------------------------------------------- reception tracking
    def _on_multicast_delivery(self, data: MulticastData) -> None:
        if data.group != self.group:
            return
        self.record_receipt(data)
        self._note_member(data.source)

    def record_receipt(self, data: MulticastData) -> None:
        """Record a multicast data packet received by the underlying protocol."""
        self.lost_table.observe(data.source, data.seq)
        self.history.add(data)

    def has_received(self, source: NodeId, seq: int) -> bool:
        """Best-effort: has this member already received (source, seq)?"""
        if (source, seq) in self.history:
            return True
        return self.lost_table.has_received(source, seq)

    def _note_member(self, member: NodeId) -> None:
        if member == self.node_id:
            return
        self.member_cache.note_member(member, self._hops_to(member), self.sim.now)

    def _hops_to(self, member: NodeId) -> int:
        route = self.aodv.route_table.lookup(member, self.sim.now)
        if route is not None:
            return route.hop_count
        return _UNKNOWN_HOPS

    # ------------------------------------------------------------ gossip rounds
    def _gossip_round(self) -> None:
        if not self.is_member:
            return
        self.stats.rounds += 1
        request = self._build_request()
        use_cached = (
            self.config.enable_cached_gossip
            and len(self.member_cache) > 0
            and self.rng.random() >= self.config.p_anon
        )
        if use_cached:
            self._send_cached(request)
        else:
            self._send_anonymous(request)

    def _build_request(self) -> GossipRequest:
        lost = self.lost_table.most_recent_lost(self.config.lost_buffer_size)
        expected = self.lost_table.expected_map()
        size = (
            REQUEST_BASE_SIZE_BYTES
            + REQUEST_PER_LOST_ENTRY_BYTES * (len(lost) + len(expected))
        )
        return GossipRequest(
            origin=self.node_id,
            destination=self.group,
            size_bytes=size,
            group=self.group,
            initiator=self.node_id,
            lost=list(lost),
            expected=expected,
            hops_remaining=MAX_GOSSIP_HOPS,
            joined_at=self._joined_at,
        )

    def _send_anonymous(self, request: GossipRequest) -> None:
        next_hop = self._choose_next_hop(exclude=None)
        if next_hop is None:
            self.stats.rounds_skipped_no_neighbor += 1
            return
        self.stats.anonymous_requests_sent += 1
        self.node.send_frame(request, next_hop)

    def _send_cached(self, request: GossipRequest) -> None:
        # ``_gossip_round`` comes here only with a non-empty cache, and
        # ``_note_member`` never caches this node.
        member = self.member_cache.random_member(self.rng)
        request.direct = True
        request.destination = member
        self.stats.cached_requests_sent += 1
        self.member_cache.record_gossip(member, self.sim.now)
        self.aodv.send_unicast(request, member)

    # ----------------------------------------------------- anonymous propagation
    def _choose_next_hop(self, exclude: Optional[NodeId]) -> Optional[NodeId]:
        neighbors = [n for n in self.multicast.tree_neighbors(self.group) if n != exclude]
        if not neighbors:
            return None
        if not self.config.enable_locality or len(neighbors) == 1:
            return self.rng.choice(neighbors)
        weights = [
            1.0 / max(1, self.multicast.nearest_member_via(self.group, neighbor))
            for neighbor in neighbors
        ]
        return self._weighted_choice(neighbors, weights)

    def _weighted_choice(self, items: List[NodeId], weights: List[float]) -> NodeId:
        total = sum(weights)
        draw = self.rng.random() * total
        cumulative = 0.0
        for item, weight in zip(items, weights):
            cumulative += weight
            if draw <= cumulative:
                return item
        return items[-1]

    def _on_request(self, request: GossipRequest, from_node: NodeId) -> None:
        if request.initiator == self.node_id:
            # A request must never be served by (or cycle back to) its own
            # initiator.
            self.stats.requests_dropped += 1
            return
        if self.is_member:
            self._note_member(request.initiator)
        if request.direct:
            self._accept(request)
            return
        if self.is_member and self.rng.random() < ACCEPT_PROBABILITY:
            self._accept(request)
            return
        self._propagate(request, from_node)

    def _propagate(self, request: GossipRequest, from_node: NodeId) -> None:
        next_hop = None
        if request.hops_remaining > 1:
            next_hop = self._choose_next_hop(exclude=from_node)
        if next_hop is None:
            # Out of budget or of next hops: a member holding the request
            # serves it rather than dropping the round entirely.
            self._accept(request)
            return
        self.stats.requests_forwarded += 1
        self.node.send_frame(
            request.forwarded(hops_remaining=request.hops_remaining - 1), next_hop
        )

    # ----------------------------------------------------------------- replies
    def _accept(self, request: GossipRequest) -> None:
        if not self.is_member:
            # Only members hold message history; a non-member cannot serve
            # the request so it silently ends here.
            self.stats.requests_dropped += 1
            return
        self.stats.requests_accepted += 1
        messages = self._collect_reply_messages(request)
        if not messages:
            return
        reply = GossipReply(
            origin=self.node_id,
            destination=request.initiator,
            size_bytes=REPLY_BASE_SIZE_BYTES
            + sum(message.size_bytes for message in messages),
            group=self.group,
            responder=self.node_id,
            messages=messages,
        )
        self.stats.replies_sent += 1
        self.stats.reply_messages_sent += len(messages)
        self.aodv.send_unicast(reply, request.initiator)

    def _collect_reply_messages(self, request: GossipRequest) -> List[MulticastData]:
        """The messages a reply carries: at most ``MAX_MESSAGES_PER_REPLY``.

        In priority order: the listed losses the history still holds; then,
        per source in ``request.expected``, what the history holds at or
        after that expected number; then, per source the initiator has never
        heard of, everything the history holds -- the bootstrap of a member
        cut off before its first reception.  The last two groups skip the
        initiator's own messages.  A mid-run joiner (``joined_at`` set) is
        served only messages sent at or after its join, in every group: even
        a listed loss predates the join when the joiner's baseline packet
        was sent before it.  No message is offered twice: a listed loss lies
        below its source's expected number, and the last two groups differ
        by source.
        """
        cutoff = request.joined_at
        messages: List[MulticastData] = []
        for message in self._reply_candidates(request):
            if cutoff is None or message.sent_at >= cutoff:
                messages.append(message)
                if len(messages) == MAX_MESSAGES_PER_REPLY:
                    break
        return messages

    def _reply_candidates(self, request: GossipRequest) -> Iterator[MulticastData]:
        """The history's answers to ``request``, in reply priority order."""
        history = self.history
        for message_id in request.lost:
            message = history.get(message_id)
            if message is not None:
                yield message
        expected = request.expected
        for source, seq in expected.items():
            if source != request.initiator:
                yield from history.messages_at_or_after(source, seq)
        for source in {message_id[0] for message_id in history.message_ids()}:
            if source not in expected and source != request.initiator:
                yield from history.messages_at_or_after(source, INITIAL_EXPECTED_SEQ)

    def _on_reply(self, reply: GossipReply, from_node: NodeId) -> None:
        if not self.is_member:
            return
        self.stats.replies_received += 1
        self.stats.reply_messages_received += len(reply.messages)
        self._note_member(reply.responder)
        self.member_cache.record_gossip(reply.responder, self.sim.now)
        for message in reply.messages:
            if self.has_received(message.source, message.seq):
                self.stats.duplicate_messages += 1
                continue
            self.stats.recovered_messages += 1
            self.record_receipt(message)
            for listener in self._recovery_listeners:
                listener(message)
