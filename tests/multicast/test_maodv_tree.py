"""Integration tests: MAODV tree construction, leadership and pruning."""

from repro.multicast.maodv import MaodvRouter
from repro.multicast.messages import JoinReply, JoinRequest, MactMessage
from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import GROUP, build_network, line_topology


class TestGroupCreation:
    def test_first_member_becomes_group_leader(self):
        network = build_network(line_topology(3, 60.0), range_m=100)
        network.start()
        network.sim.call_at(0.5, network.maodv[0].join_group, (GROUP,))
        network.run(5.0)
        assert network.maodv[0].is_member(GROUP)
        assert network.maodv[0].is_group_leader(GROUP)

    def test_second_member_grafts_instead_of_leading(self):
        network = build_network(line_topology(2, 60.0), range_m=100)
        network.start()
        network.join_all([0, 1], spacing_s=4.0)
        network.run(12.0)
        leaders = [n for n in (0, 1) if network.maodv[n].is_group_leader(GROUP)]
        assert len(leaders) == 1
        assert network.maodv[0].tree_neighbors(GROUP) == [1]
        assert network.maodv[1].tree_neighbors(GROUP) == [0]

    def test_join_is_idempotent(self):
        network = build_network(line_topology(2, 60.0), range_m=100)
        network.start()
        network.sim.call_at(0.5, network.maodv[0].join_group, (GROUP,))
        network.sim.call_at(3.0, network.maodv[0].join_group, (GROUP,))
        network.run(6.0)
        assert network.maodv[0].stats.joins_initiated == 1


class TestTreeConstruction:
    def test_intermediate_routers_grafted_onto_tree(self):
        # Members at the ends of a 4-node line; the middle nodes must become
        # tree routers even though they are not members.
        network = build_network(line_topology(4, 60.0), range_m=80)
        network.start()
        network.join_all([0, 3], spacing_s=4.0)
        network.run(15.0)
        assert network.maodv[1].is_on_tree(GROUP)
        assert network.maodv[2].is_on_tree(GROUP)
        assert not network.maodv[1].is_member(GROUP)
        edges = set(network.tree_edges())
        assert (0, 1) in edges and (1, 0) in edges
        assert (1, 2) in edges and (2, 1) in edges
        assert (2, 3) in edges and (3, 2) in edges

    def test_tree_links_are_symmetric(self):
        network = build_network(line_topology(5, 60.0), range_m=80)
        network.start()
        network.join_all([0, 2, 4], spacing_s=3.0)
        network.run(20.0)
        edges = set(network.tree_edges())
        for a, b in edges:
            assert (b, a) in edges

    def test_all_members_connected_to_single_leader(self):
        network = build_network(line_topology(5, 60.0), range_m=80)
        network.start()
        network.join_all([0, 2, 4], spacing_s=3.0)
        network.run(25.0)
        leaders = {
            network.maodv[m].table.entry(GROUP).leader for m in (0, 2, 4)
        }
        assert len(leaders) == 1


class TestNearestMemberMaintenance:
    def test_router_learns_member_distances(self):
        # Members 0 and 3; routers 1 and 2 in between (line, 60 m spacing).
        network = build_network(line_topology(4, 60.0), range_m=80)
        network.start()
        network.join_all([0, 3], spacing_s=4.0)
        network.run(20.0)
        router = network.maodv[1]
        # Through node 0 the nearest member (node 0) is 1 hop away; through
        # node 2 the nearest member (node 3) is 2 hops away.
        assert router.nearest_member_via(GROUP, 0) == 1
        assert router.nearest_member_via(GROUP, 2) == 2

    def test_member_advertises_distance_one(self):
        network = build_network(line_topology(3, 60.0), range_m=80)
        network.start()
        network.join_all([0, 2], spacing_s=4.0)
        network.run(15.0)
        router = network.maodv[1]
        assert router.nearest_member_via(GROUP, 0) == 1
        assert router.nearest_member_via(GROUP, 2) == 1

    def test_update_messages_are_sent(self):
        network = build_network(line_topology(4, 60.0), range_m=80)
        network.start()
        network.join_all([0, 3], spacing_s=4.0)
        network.run(20.0)
        total_updates = sum(
            network.maodv[n].stats.nearest_member_updates_sent for n in range(4)
        )
        assert total_updates > 0


class TestLeaveAndPrune:
    def test_leaf_member_prunes_itself(self):
        network = build_network(line_topology(2, 60.0), range_m=100)
        network.start()
        network.join_all([0, 1], spacing_s=3.0)
        network.run(10.0)
        network.maodv[1].leave_group(GROUP)
        network.run(5.0)
        assert not network.maodv[1].is_member(GROUP)
        assert network.maodv[1].table.entry(GROUP) is None
        # The remaining member no longer lists the leaver as a next hop.
        assert network.maodv[0].tree_neighbors(GROUP) == []

    def test_orphaned_leaf_router_prunes_itself(self):
        # 0 (member) - 1 (router) - 2 (member): when member 2 leaves, router 1
        # becomes a non-member leaf and must prune itself too.
        network = build_network(line_topology(3, 60.0), range_m=80)
        network.start()
        network.join_all([0, 2], spacing_s=3.0)
        network.run(12.0)
        assert network.maodv[1].is_on_tree(GROUP)
        network.maodv[2].leave_group(GROUP)
        network.run(8.0)
        assert network.maodv[1].table.entry(GROUP) is None
        assert network.maodv[0].tree_neighbors(GROUP) == []

    def test_leave_without_membership_is_noop(self):
        network = build_network(line_topology(2, 60.0), range_m=100)
        network.start()
        network.maodv[0].leave_group(GROUP)
        network.run(1.0)
        assert network.maodv[0].table.entry(GROUP) is None


class _StubNode:
    """What a router needs of its node, with no radio: sent frames are kept."""

    def __init__(self, sim):
        self.sim = sim
        self.node_id = 0
        self.streams = RandomStreams(1)
        self.sent = []

    def register_handler(self, packet_type, handler):
        pass

    def send_frame(self, packet, next_hop):
        self.sent.append((self.sim.now, type(packet).__name__, packet.origin,
                          getattr(packet, "rreq_id", None), next_hop))

    # The node's own rule, over this stub's clock and ``send_frame``.
    broadcast_jittered = Node.broadcast_jittered


class _StubAodv:
    sequence_number = 0

    def add_neighbor_loss_listener(self, listener):
        pass


def _stub_router():
    sim = Simulator()
    node = _StubNode(sim)
    return sim, node, MaodvRouter(node, _StubAodv())


class TestSeenJoinRequests:
    """The join-request seen-cache drops expired keys once per lifetime
    without changing a single answer."""

    @staticmethod
    def _flood(purge):
        sim, node, router = _stub_router()
        if not purge:  # a pass that is never due: every key stays
            router._seen_join_requests._purge_at = float("inf")
        sizes = []

        def deliver(step):
            # A new flood every 25 ms (3000 keys over 75 s), a duplicate of
            # the one from 3 s ago (still seen: suppressed) and of the one from
            # 12 s ago (expired: forwarded again).
            for earlier in (step, step - 120, step - 480):
                if earlier >= 0:
                    request = JoinRequest(
                        origin=1 + earlier % 50, destination=BROADCAST_ADDRESS,
                        ttl=5, group=GROUP, rreq_id=earlier)
                    router._on_join_request(request, 9)
            sizes.append(len(router._seen_join_requests))

        for step in range(3000):
            sim.call_at(step * 0.025, deliver, (step,))
        sim.run()
        return node.sent, sizes

    def test_bounded_and_answering_as_the_unpurged_table(self):
        sent, sizes = self._flood(purge=True)
        unpurged_sent, unpurged_sizes = self._flood(purge=False)
        # The keys marked in the last two 10 s lifetimes: 800 new floods and
        # 480 expired repeats of floods older than that.
        assert max(sizes) <= 1280
        assert unpurged_sizes[-1] == 3000
        assert sent == unpurged_sent
        assert len(sent) == 3000 + 2520  # every first sight, every expired repeat


class TestPotentialUpstreamKey:
    def test_known_deviation_two_requesters_share_one_upstream_entry(self):
        """KNOWN DEVIATION, pinned not endorsed (ROADMAP direction 3).

        ``_potential_upstream`` is keyed ``(group, rreq_id)`` without the
        requester, and every node's first join uses ``rreq_id`` 1.  A relay
        that forwards replies to two requesters keeps only the later reply's
        upstream, so the earlier requester's MACT grafts the relay onto the
        other requester's branch.  It is in every digest (on ``paper40_ag``
        seed 1, 51 of the 379 replies relays handle overwrite another
        requester's entry); the fix moves them.
        """
        sim, node, router = _stub_router()
        for requester, via in ((1, 5), (2, 6)):  # both first joins: rreq_id 1
            request = JoinRequest(origin=requester, destination=BROADCAST_ADDRESS,
                                  ttl=5, group=GROUP, rreq_id=1)
            router._on_join_request(request, via)
        for requester, upstream in ((1, 7), (2, 8)):
            reply = JoinReply(origin=upstream, destination=requester, group=GROUP,
                              replier=upstream, rreq_id=1)
            router._on_join_reply(reply, upstream)
        assert router._potential_upstream == {(GROUP, 1): 8}  # requester 1's 7 is gone
        sim.run()
        node.sent.clear()
        # Requester 1 picks the reply it got through this relay (via 5)...
        router._on_mact(MactMessage(origin=1, destination=0, group=GROUP, rreq_id=1), 5)
        grafts = [frame for frame in node.sent if frame[1] == "MactMessage"]
        # ...and the relay activates requester 2's upstream, not its own 7.
        assert grafts == [(sim.now, "MactMessage", 0, 1, 8)]
