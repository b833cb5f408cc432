"""Multicast AODV (MAODV).

This module implements the multicast tree protocol the paper layers
Anonymous Gossip on top of:

* **Join**: a node joins a group by flooding a :class:`JoinRequest`; tree
  members and routers answer with :class:`JoinReply`; the requester picks the
  freshest/shortest reply and activates the branch with a
  :class:`MactMessage`, grafting every node along the path onto the tree.
* **Group leader**: the first member of a group (or a member that could not
  find the tree) becomes group leader, periodically increments the group
  sequence number and floods :class:`GroupHello` announcements.
* **Data forwarding**: multicast data is rebroadcast along the tree; a node
  accepts a data packet only from one of its active tree neighbours and
  suppresses duplicates by (source, sequence number).
* **Tree maintenance**: when a tree link breaks, the *downstream* node (the
  one farther from the leader) repairs it with a repair-flagged join request
  that only nodes closer to the leader may answer; repeated failure makes it
  the leader of its own partition.  Leaving members and orphaned leaf routers
  prune themselves with MACT prune messages.
* **Nearest-member tracking** (paper section 4.2): every tree node maintains,
  per next hop, the distance to the nearest group member reachable through
  that next hop, propagated with small "modify" messages.  Anonymous Gossip
  uses these distances to bias gossip towards nearby members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId
from repro.net.node import Node
from repro.net.packet import SeenCache
from repro.multicast.messages import (
    GroupHello,
    JoinReply,
    JoinRequest,
    LeaderHandoff,
    MactMessage,
    MulticastData,
    NearestMemberUpdate,
)
from repro.multicast.route_table import GroupEntry, MulticastRouteTable
from repro.multicast.router import FLOOD_TTL, MulticastRouter
from repro.routing.aodv import AodvRouter
from repro.sim.timers import PeriodicTimer

# Protocol parameters: the paper's simulation settings where it states them
# (group hello interval 5 s).  README's "Model parameters" table gives each
# value's source.

#: Interval between group hello floods sent by the group leader.
GROUP_HELLO_INTERVAL_S = 5.0
#: How long a join requester collects replies before activating the best.
REPLY_WAIT_S = 0.5
#: Number of join attempts before the node declares itself partitioned (and
#: becomes its own group leader).
JOIN_RETRIES = 3
#: Number of repair attempts after a tree link break before giving up and
#: becoming a partition leader.
REPAIR_RETRIES = 2
#: How long a repair attempt waits for replies.
REPAIR_WAIT_S = 0.75
#: Size in bytes of the control messages.
JOIN_REQUEST_SIZE_BYTES = 28
JOIN_REPLY_SIZE_BYTES = 24
MACT_SIZE_BYTES = 16
GROUP_HELLO_SIZE_BYTES = 16
NEAREST_MEMBER_UPDATE_SIZE_BYTES = 12
LEADER_HANDOFF_SIZE_BYTES = 20
#: Value used as "infinity" for nearest-member distances.
NEAREST_MEMBER_INFINITY = 64
# Leadership hand-off when the group leader leaves the group (draft rule):
# the leaver floods a tree-scoped hand-off carrying a one-pass best-so-far
# election, and the oldest member on the tree takes over (node id breaks
# exact ties).
#: How long a bidding member waits, after first hearing a hand-off flood,
#: before checking whether its bid is still the best it has seen and taking
#: over.  Must cover a tree-wide flood sweep plus the echo of a better bid
#: back along its branch.
HANDOFF_WAIT_S = 1.0
#: How long an abdicated leader (that stayed a tree router) waits for a
#: successor's group hello before resuming leadership itself.  The hand-off
#: flood is a best-effort broadcast; without this fallback a lost flood
#: would leave the group permanently leaderless (no hello timeout exists to
#: trigger re-election).
HANDOFF_FALLBACK_S = 6.0


class MaodvStats:
    """Per-node MAODV counters."""

    def __init__(self) -> None:
        self.joins_initiated = 0
        self.join_requests_sent = 0
        self.join_requests_forwarded = 0
        self.join_replies_sent = 0
        self.join_replies_forwarded = 0
        self.mact_sent = 0
        self.prunes_sent = 0
        self.group_hellos_sent = 0
        self.group_hellos_forwarded = 0
        self.data_originated = 0
        self.data_forwarded = 0
        self.data_delivered = 0
        self.data_duplicates = 0
        self.data_rejected_off_tree = 0
        self.repairs_started = 0
        self.repairs_succeeded = 0
        self.partitions_became_leader = 0
        self.nearest_member_updates_sent = 0
        self.leader_handoffs_sent = 0
        self.leader_handoffs_forwarded = 0
        self.leader_handoffs_accepted = 0
        self.leader_handoffs_reclaimed = 0


@dataclass(eq=False, repr=False)
class _PendingJoin:
    """State of an in-progress join or tree-repair attempt."""

    group: GroupAddress
    rreq_id: int
    repair: bool = False
    requester_hops_to_leader: int = 0
    retries: int = 0
    replies: List[Tuple[JoinReply, NodeId]] = field(default_factory=list)


class MaodvRouter(MulticastRouter):
    """MAODV multicast routing agent for a single node."""

    stream = "maodv"

    def __init__(self, node: Node, aodv: AodvRouter):
        super().__init__(node, aodv, MaodvStats())
        self.table = MulticastRouteTable()
        #: The table's own group dict, for the data path's one-frame lookup.
        self._groups = self.table._groups

        self._rreq_id = 0
        self._pending_joins: Dict[GroupAddress, _PendingJoin] = {}
        self._reverse_routes: Dict[tuple, NodeId] = {}
        self._potential_upstream: Dict[tuple, NodeId] = {}
        self._seen_join_requests = SeenCache(10.0)
        self._seen_group_hellos = SeenCache(60.0)
        self._seen_handoffs = SeenCache(60.0)
        #: Election key -> best ``(age_s, -node_id)`` bid seen for that
        #: hand-off flood (max-ordered: older membership wins, lower node id
        #: breaks exact ties).  Entries are as rare and small as the
        #: hand-offs themselves, so they are kept.
        self._handoff_best: Dict[tuple, tuple] = {}
        #: When this node last became a member, per group (the age that
        #: ranks leader hand-off bids).
        self._member_since: Dict[GroupAddress, float] = {}
        self._last_advertised: Dict[Tuple[GroupAddress, NodeId], int] = {}
        self._group_hello_timers: Dict[GroupAddress, PeriodicTimer] = {}

        node.register_handler(JoinRequest, self._on_join_request)
        node.register_handler(JoinReply, self._on_join_reply)
        node.register_handler(MactMessage, self._on_mact)
        node.register_handler(GroupHello, self._on_group_hello)
        node.register_handler(LeaderHandoff, self._on_leader_handoff)
        node.register_handler(NearestMemberUpdate, self._on_nearest_member_update)
        aodv.add_neighbor_loss_listener(self._on_neighbor_loss)

    # ------------------------------------------------------------------ basics
    def is_member(self, group: GroupAddress) -> bool:
        """True when this node is a member of ``group``."""
        entry = self.table.entry(group)
        return entry is not None and entry.is_member

    def is_on_tree(self, group: GroupAddress) -> bool:
        """True when this node is part of the group's multicast tree."""
        entry = self.table.entry(group)
        return entry is not None and entry.on_tree

    def is_group_leader(self, group: GroupAddress) -> bool:
        """True when this node currently acts as the group leader."""
        entry = self.table.entry(group)
        return entry is not None and entry.leader == self.node_id

    def tree_neighbors(self, group: GroupAddress) -> List[NodeId]:
        """Active multicast tree next hops for ``group``."""
        entry = self.table.entry(group)
        if entry is None:
            return []
        return entry.tree_neighbors()

    def nearest_member_via(self, group: GroupAddress, neighbor: NodeId) -> int:
        """Nearest-member distance advertised by ``neighbor`` for ``group``."""
        entry = self.table.entry(group)
        if entry is None:
            return NEAREST_MEMBER_INFINITY
        return entry.nearest_member_via(neighbor)

    # -------------------------------------------------------------- membership
    def join_group(self, group: GroupAddress) -> None:
        """Join ``group`` as a member, building or grafting onto its tree."""
        entry = self.table.get_or_create(group)
        if entry.is_member:
            return
        entry.is_member = True
        self._member_since[group] = self.sim.now
        self.stats.joins_initiated += 1
        if entry.tree_neighbors():
            # Already a router on this tree: membership change only.
            self._propagate_nearest_member(group)
            return
        self._start_join(group)

    def leave_group(self, group: GroupAddress) -> None:
        """Leave ``group``: a leaf prunes itself, the last member dissolves it.

        * A join/repair still in flight for the group is abandoned (late
          replies are ignored through the pending-join bookkeeping).
        * A leaving *leader* with remaining tree branches first hands
          leadership off (draft rule): it floods a tree-scoped
          :class:`LeaderHandoff` whose one-pass best-so-far election makes
          the oldest member on the tree take over
          (see :meth:`_on_leader_handoff`).  When the leader is the last
          tree node the group dissolves here: hellos stop and the entry is
          removed, so a later :meth:`join_group` re-creates the group from
          scratch.
        * A leaf member (including an ex-leader left with a single branch)
          MACT-prunes its single tree link and forgets the group.
        * Any other non-leaf member keeps routing for the tree, only its
          membership flag (and nearest-member advertisement) changes.
        """
        entry = self.table.entry(group)
        if entry is None or not entry.is_member:
            return
        entry.is_member = False
        self._member_since.pop(group, None)
        self._pending_joins.pop(group, None)
        neighbors = entry.tree_neighbors()
        if self.is_group_leader(group):
            if not neighbors:
                # Last member of its partition: the group dissolves.
                self._stop_group_hello(group)
                self.table.remove(group)
                return
            self._hand_off_leadership(group, entry)
        if len(neighbors) <= 1:
            if neighbors:
                self._send_prune(group, neighbors[0])
                entry.remove_next_hop(neighbors[0])
            self._stop_group_hello(group)
            self.table.remove(group)
            return
        # Non-leaf members must keep routing for the tree.
        self._propagate_nearest_member(group)

    # --------------------------------------------------------------- data plane
    def send_data(self, group: GroupAddress, size_bytes: int = 64) -> MulticastData:
        """Originate one multicast data packet to ``group``; returns it."""
        data = self._originate(group, size_bytes)
        entry = self.table.entry(group)
        if entry is not None and entry.tree_neighbors():
            self.node.send_frame(data, BROADCAST_ADDRESS)
        return data

    def _on_multicast_data(self, data: MulticastData, from_node: NodeId) -> None:
        # Most copies end in the first four tests (no entry for the group,
        # not on the tree, off-tree sender, duplicate), so up to there this
        # is one frame: ``table.entry`` and ``entry.on_tree`` are written out.
        entry = self._groups.get(data.group)
        if entry is None:
            return
        next_hops = entry.next_hops
        if not entry.is_member:
            for hop in next_hops.values():
                if hop.enabled:
                    break
            else:
                return  # neither a member nor a router: not on the tree
        if from_node != self.node_id and from_node not in next_hops:
            # Data is only accepted from tree neighbours (enabled or pending
            # activation); anything else is off-tree traffic.
            self.stats.data_rejected_off_tree += 1
            return
        key = data.mid
        if key in self._seen_data:
            self.stats.data_duplicates += 1
            return
        self._seen_data.remember(key)
        if entry.is_member:
            self._deliver(data)
        # Forward along the tree if there is anyone besides the sender.
        others = [n for n in entry.tree_neighbors() if n != from_node]
        if others:
            self.stats.data_forwarded += 1
            self.node.broadcast_jittered(data, self.rng)

    # ------------------------------------------------------------ join protocol
    def _start_join(self, group: GroupAddress, *, repair: bool = False,
                    requester_hops_to_leader: int = 0) -> None:
        if group in self._pending_joins:
            return
        self._rreq_id += 1
        pending = _PendingJoin(
            group=group,
            rreq_id=self._rreq_id,
            repair=repair,
            requester_hops_to_leader=requester_hops_to_leader,
        )
        self._pending_joins[group] = pending
        if repair:
            self.stats.repairs_started += 1
        self._send_join_request(pending)

    def _send_join_request(self, pending: _PendingJoin) -> None:
        entry = self.table.get_or_create(pending.group)
        self.stats.join_requests_sent += 1
        request = JoinRequest(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=JOIN_REQUEST_SIZE_BYTES,
            ttl=FLOOD_TTL,
            group=pending.group,
            origin_seq=self.aodv.sequence_number,
            rreq_id=pending.rreq_id,
            hop_count=0,
            group_seq=entry.group_seq,
            group_seq_known=entry.leader != -1,
            repair=pending.repair,
            requester_hops_to_leader=pending.requester_hops_to_leader,
        )
        self._seen_join_requests.mark(request.flood_key, self.sim.now)
        self.node.send_frame(request, BROADCAST_ADDRESS)
        wait = REPAIR_WAIT_S if pending.repair else REPLY_WAIT_S
        self.sim.call_in(wait, self._join_wait_expired, (pending.group, pending.rreq_id))

    def _on_join_request(self, request: JoinRequest, from_node: NodeId) -> None:
        if request.origin == self.node_id:
            return
        key = request.flood_key
        if not self._seen_join_requests.first_sight(key, self.sim.now):
            return
        self._reverse_routes[key] = from_node

        entry = self.table.entry(request.group)
        can_reply = entry is not None and entry.on_tree
        if can_reply and request.repair:
            # Only nodes closer to the group leader than the requester may
            # answer a repair request (prevents loops, per the paper).
            can_reply = entry.hops_to_leader < request.requester_hops_to_leader
        if can_reply:
            entry.add_next_hop(from_node, enabled=False)
            self.stats.join_replies_sent += 1
            reply = JoinReply(
                origin=self.node_id,
                destination=request.origin,
                size_bytes=JOIN_REPLY_SIZE_BYTES,
                group=request.group,
                replier=self.node_id,
                group_seq=entry.group_seq,
                group_leader=entry.leader,
                hop_count=0,
                hops_to_leader=entry.hops_to_leader,
                rreq_id=request.rreq_id,
            )
            self.node.send_frame(reply, from_node)
            return
        if request.ttl <= 1:
            return
        forwarded = request.forwarded(ttl=request.ttl - 1, hop_count=request.hop_count + 1)
        self.stats.join_requests_forwarded += 1
        self.node.broadcast_jittered(forwarded, self.rng)

    def _on_join_reply(self, reply: JoinReply, from_node: NodeId) -> None:
        if reply.destination == self.node_id:
            pending = self._pending_joins.get(reply.group)
            if pending is not None and pending.rreq_id == reply.rreq_id:
                pending.replies.append((reply, from_node))
            return
        # Intermediate node: remember the path in both directions as
        # potential (disabled) tree links and forward towards the requester.
        entry = self.table.get_or_create(reply.group)
        entry.add_next_hop(from_node, enabled=False)
        self._potential_upstream[(reply.group, reply.rreq_id)] = from_node
        reverse = self._reverse_routes.get((reply.destination, reply.rreq_id))
        if reverse is None:
            return
        entry.add_next_hop(reverse, enabled=False)
        forwarded = reply.forwarded(hop_count=reply.hop_count + 1)
        self.stats.join_replies_forwarded += 1
        self.node.send_frame(forwarded, reverse)

    def _join_wait_expired(self, group: GroupAddress, rreq_id: int) -> None:
        pending = self._pending_joins.get(group)
        if pending is None or pending.rreq_id != rreq_id:
            return
        if pending.replies:
            self._activate_best_reply(pending)
            return
        max_retries = REPAIR_RETRIES if pending.repair else JOIN_RETRIES
        if pending.retries < max_retries:
            pending.retries += 1
            self._rreq_id += 1
            pending.rreq_id = self._rreq_id
            pending.replies.clear()
            self._send_join_request(pending)
            return
        # No tree found: this node becomes the leader of its own partition.
        del self._pending_joins[group]
        entry = self.table.get_or_create(group)
        if entry.is_member:
            self._become_leader(group)
        elif not entry.on_tree:
            self.table.remove(group)

    def _activate_best_reply(self, pending: _PendingJoin) -> None:
        del self._pending_joins[pending.group]
        reply, next_hop = max(
            pending.replies, key=lambda item: (item[0].group_seq, -item[0].hop_count)
        )
        entry = self.table.get_or_create(pending.group)
        entry.leader = reply.group_leader
        entry.group_seq = max(entry.group_seq, reply.group_seq)
        entry.hops_to_leader = reply.hops_to_leader + reply.hop_count + 1
        entry.enable_next_hop(next_hop, is_upstream=True)
        self._stop_group_hello_if_not_leader(pending.group)
        mact = MactMessage(
            origin=self.node_id,
            destination=next_hop,
            size_bytes=MACT_SIZE_BYTES,
            group=pending.group,
            kind="activate",
            rreq_id=pending.rreq_id,
        )
        self.stats.mact_sent += 1
        self.node.send_frame(mact, next_hop)
        if pending.repair:
            self.stats.repairs_succeeded += 1
        self._propagate_nearest_member(pending.group)

    def _on_mact(self, mact: MactMessage, from_node: NodeId) -> None:
        entry = self.table.entry(mact.group)
        if entry is None:
            return
        if mact.kind == "prune":
            entry.remove_next_hop(from_node)
            self._last_advertised.pop((mact.group, from_node), None)
            self._maybe_prune_self(mact.group)
            self._propagate_nearest_member(mact.group)
            return
        was_on_tree = entry.on_tree
        entry.enable_next_hop(from_node, is_upstream=False)
        if not was_on_tree:
            upstream = self._potential_upstream.get((mact.group, mact.rreq_id))
            if upstream is not None and upstream != from_node:
                entry.enable_next_hop(upstream, is_upstream=True)
                forwarded = mact.forwarded(origin=self.node_id, destination=upstream)
                self.stats.mact_sent += 1
                self.node.send_frame(forwarded, upstream)
        self._propagate_nearest_member(mact.group)

    # --------------------------------------------------------- leader hand-off
    def _hand_off_leadership(self, group: GroupAddress, entry: GroupEntry) -> None:
        """Abdicate: flood a tree-scoped hand-off and forget the leadership.

        The leaver's view of the leader becomes unknown (``-1``) until the
        new leader's group hello arrives; hellos stop immediately so two
        leaders never announce concurrently.
        """
        handoff = LeaderHandoff(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=LEADER_HANDOFF_SIZE_BYTES,
            group=group,
            leader=self.node_id,
            group_seq=entry.group_seq,
        )
        self._seen_handoffs.mark(handoff.flood_key, self.sim.now)
        self._stop_group_hello(group)
        entry.leader = -1
        self.stats.leader_handoffs_sent += 1
        self.node.send_frame(handoff, BROADCAST_ADDRESS)
        # The flood is fire-and-forget; if no successor announces itself
        # (flood lost, or no member left downstream) a leaver that stayed a
        # tree router resumes leading rather than leaving the group
        # leaderless.  (A leaver that pruned itself off the tree cannot
        # fall back; that residual window matches a leader crash.)
        self.sim.call_in(
            HANDOFF_FALLBACK_S,
            self._handoff_fallback, (group, entry.group_seq),
        )

    def _handoff_fallback(self, group: GroupAddress, handoff_seq: int) -> None:
        entry = self.table.entry(group)
        if entry is None or not entry.on_tree:
            return
        if entry.leader != -1 or entry.group_seq > handoff_seq:
            return  # a successor's hello arrived; the hand-off worked
        self.stats.leader_handoffs_reclaimed += 1
        self._become_leader(group)

    def _on_leader_handoff(self, handoff: LeaderHandoff, from_node: NodeId) -> None:
        """One-pass best-so-far election over the hand-off flood.

        The flood accumulates the best ``(membership age, node id)`` bid it
        has passed; each router (re-)forwards a copy only when the best
        candidate it knows of improves, so better bids sweep the whole tree
        -- including back up the branch they came from.  A member bids on
        first sight and schedules a single fixed-delay takeover check; at
        fire time it takes over iff its own bid is still the best it has
        seen.  Ranking is deterministic (older membership wins, lower node
        id breaks exact ties), so near-tie elections no longer fall back to
        the partition-merge machinery's duelling-leaders resolution.
        """
        entry = self.table.entry(handoff.group)
        if entry is None or not entry.on_tree:
            return
        if from_node != self.node_id and from_node not in entry.next_hops:
            return
        now = self.sim.now
        key = handoff.flood_key
        first_sight = self._seen_handoffs.first_sight(key, now)
        best = self._handoff_best.get(key)
        if handoff.candidate != -1:
            incoming = (handoff.candidate_age_s, -handoff.candidate)
            if best is None or incoming > best:
                best = incoming
            elif not first_sight:
                return  # duplicate carrying nothing new: suppress
        elif not first_sight:
            return
        if first_sight:
            if entry.leader == handoff.leader:
                entry.leader = -1
            entry.group_seq = max(entry.group_seq, handoff.group_seq)
            if entry.is_member and not self.is_group_leader(handoff.group):
                age = max(0.0, now - self._member_since.get(handoff.group, now))
                bid = (age, -self.node_id)
                if best is None or bid > best:
                    best = bid
                    # Our bid leads so far: check back after the flood (and
                    # any better bid's echo) has had time to sweep the tree.
                    self.sim.call_in(
                        HANDOFF_WAIT_S,
                        self._attempt_takeover,
                        (handoff.group, key, handoff.group_seq),
                    )
        if best is not None:
            self._handoff_best[key] = best
        others = [n for n in entry.tree_neighbors() if n != from_node]
        if others:
            self.stats.leader_handoffs_forwarded += 1
            forwarded = handoff.forwarded(
                candidate=-best[1] if best is not None else -1,
                candidate_age_s=best[0] if best is not None else -1.0,
            )
            self.node.broadcast_jittered(forwarded, self.rng)

    def _attempt_takeover(
        self, group: GroupAddress, key: tuple, handoff_seq: int
    ) -> None:
        entry = self.table.entry(group)
        if entry is None or not entry.is_member or self.is_group_leader(group):
            return
        if entry.group_seq > handoff_seq:
            # A newer leader already announced itself (group hellos bump the
            # sequence past the hand-off's); stand down.
            return
        best = self._handoff_best.get(key)
        if best is None or -best[1] != self.node_id:
            return  # a better bid swept past: its owner takes over, not us
        self.stats.leader_handoffs_accepted += 1
        self._become_leader(group)

    # -------------------------------------------------------------- group hello
    def _become_leader(self, group: GroupAddress) -> None:
        entry = self.table.get_or_create(group)
        entry.leader = self.node_id
        entry.group_seq += 1
        entry.hops_to_leader = 0
        self.stats.partitions_became_leader += 1
        if group not in self._group_hello_timers:
            timer = PeriodicTimer(
                self.sim,
                GROUP_HELLO_INTERVAL_S,
                lambda g=group: self._send_group_hello(g),
                delay=self.rng.uniform(0.0, 0.5),
            )
            self._group_hello_timers[group] = timer
            timer.start()
        self._propagate_nearest_member(group)

    def _stop_group_hello(self, group: GroupAddress) -> None:
        timer = self._group_hello_timers.pop(group, None)
        if timer is not None:
            timer.stop()

    def _stop_group_hello_if_not_leader(self, group: GroupAddress) -> None:
        if not self.is_group_leader(group):
            self._stop_group_hello(group)

    def _send_group_hello(self, group: GroupAddress) -> None:
        entry = self.table.entry(group)
        if entry is None or entry.leader != self.node_id:
            self._stop_group_hello(group)
            return
        entry.group_seq += 1
        self.stats.group_hellos_sent += 1
        hello = GroupHello(
            origin=self.node_id,
            destination=BROADCAST_ADDRESS,
            size_bytes=GROUP_HELLO_SIZE_BYTES,
            ttl=FLOOD_TTL,
            group=group,
            leader=self.node_id,
            group_seq=entry.group_seq,
            hop_count=0,
        )
        self._seen_group_hellos.mark(hello.flood_key, self.sim.now)
        self.node.send_frame(hello, BROADCAST_ADDRESS)

    def _on_group_hello(self, hello: GroupHello, from_node: NodeId) -> None:
        if not self._seen_group_hellos.first_sight(hello.flood_key, self.sim.now):
            return
        entry = self.table.entry(hello.group)
        if entry is not None:
            self._reconcile_leader(entry, hello)
        if hello.ttl > 1:
            forwarded = hello.forwarded(ttl=hello.ttl - 1, hop_count=hello.hop_count + 1)
            self.stats.group_hellos_forwarded += 1
            self.node.broadcast_jittered(forwarded, self.rng)

    def _reconcile_leader(self, entry: GroupEntry, hello: GroupHello) -> None:
        if hello.group_seq < entry.group_seq:
            return
        if hello.leader == self.node_id:
            return
        i_am_leader = entry.leader == self.node_id
        if i_am_leader:
            # Two partitions heard each other.  The leader with the lower id
            # abdicates and grafts onto the other tree (simplified merge rule
            # compared to the full draft, preserving the "single leader after
            # merge" behaviour).
            if hello.leader > self.node_id:
                self._stop_group_hello(entry.group)
                entry.leader = hello.leader
                entry.group_seq = hello.group_seq
                entry.hops_to_leader = hello.hop_count + 1
                if entry.is_member:
                    # Graft this (sub)tree onto the surviving leader's tree:
                    # only nodes closer to the new leader may answer, which
                    # prevents re-grafting onto the abdicating leader's own
                    # subtree.
                    self._start_join(
                        entry.group,
                        repair=True,
                        requester_hops_to_leader=entry.hops_to_leader,
                    )
            return
        entry.leader = hello.leader
        entry.group_seq = max(entry.group_seq, hello.group_seq)
        if entry.on_tree:
            entry.hops_to_leader = hello.hop_count + 1
        # A member that lost contact with the tree rejoins when it hears the
        # leader again.
        if entry.is_member and not entry.tree_neighbors() and entry.group not in self._pending_joins:
            self._start_join(entry.group)

    # ---------------------------------------------------------- tree maintenance
    def _on_neighbor_loss(self, neighbor: NodeId) -> None:
        for group in list(self.table.groups()):
            entry = self.table.entry(group)
            if entry is None or neighbor not in entry.next_hops:
                continue
            hop = entry.next_hops[neighbor]
            was_enabled = hop.enabled
            was_upstream = hop.is_upstream
            entry.remove_next_hop(neighbor)
            self._last_advertised.pop((group, neighbor), None)
            if not was_enabled:
                continue
            if was_upstream and not self.is_group_leader(group):
                # Downstream node repairs the break (paper / draft rule).
                self._start_join(
                    group,
                    repair=True,
                    requester_hops_to_leader=max(entry.hops_to_leader, 1),
                )
            else:
                self._maybe_prune_self(group)
            self._propagate_nearest_member(group)

    def _maybe_prune_self(self, group: GroupAddress) -> None:
        entry = self.table.entry(group)
        if entry is None or entry.is_member or self.is_group_leader(group):
            return
        neighbors = entry.tree_neighbors()
        if len(neighbors) == 1:
            self._send_prune(group, neighbors[0])
            entry.remove_next_hop(neighbors[0])
            neighbors = []
        if not neighbors:
            self._stop_group_hello(group)
            self.table.remove(group)

    def _send_prune(self, group: GroupAddress, neighbor: NodeId) -> None:
        prune = MactMessage(
            origin=self.node_id,
            destination=neighbor,
            size_bytes=MACT_SIZE_BYTES,
            group=group,
            kind="prune",
        )
        self.stats.prunes_sent += 1
        self.node.send_frame(prune, neighbor)

    # ------------------------------------------------------- nearest member data
    def _propagate_nearest_member(self, group: GroupAddress) -> None:
        entry = self.table.entry(group)
        if entry is None:
            return
        infinity = NEAREST_MEMBER_INFINITY
        for neighbor in entry.tree_neighbors():
            advertised = entry.advertised_distance_to(neighbor, infinity)
            last = self._last_advertised.get((group, neighbor))
            if last == advertised:
                continue
            self._last_advertised[(group, neighbor)] = advertised
            update = NearestMemberUpdate(
                origin=self.node_id,
                destination=neighbor,
                size_bytes=NEAREST_MEMBER_UPDATE_SIZE_BYTES,
                group=group,
                distance=advertised,
            )
            self.stats.nearest_member_updates_sent += 1
            self.node.send_frame(update, neighbor)

    def _on_nearest_member_update(self, update: NearestMemberUpdate, from_node: NodeId) -> None:
        entry = self.table.entry(update.group)
        if entry is None or from_node not in entry.next_hops:
            return
        if entry.set_nearest_member(from_node, update.distance):
            self._propagate_nearest_member(update.group)
