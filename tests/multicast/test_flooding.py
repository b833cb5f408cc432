"""Tests for the blind-flooding multicast baseline."""

from repro.multicast.flooding import FloodingRouter
from repro.multicast.router import FLOOD_TTL
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.mobility.static import StaticMobility
from repro.routing.aodv import AodvRouter
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import GROUP


def _build_flooding_network(positions, range_m=80.0):
    sim = Simulator()
    streams = RandomStreams(5)
    medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
    routers = []
    nodes = []
    for node_id, (x, y) in enumerate(positions):
        node = Node(node_id, sim, medium, StaticMobility(x, y), streams)
        aodv = AodvRouter(node)
        router = FloodingRouter(node, aodv)
        nodes.append(node)
        routers.append(router)
    return sim, nodes, routers


class TestFloodingDelivery:
    def test_data_floods_across_multiple_hops(self):
        positions = [(i * 60.0, 0.0) for i in range(5)]
        sim, nodes, routers = _build_flooding_network(positions)
        received = []
        routers[4].join_group(GROUP)
        routers[4].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=2.0)
        assert received == [1]

    def test_all_members_receive_without_any_tree(self):
        # Range 90 m: the two relays can carrier-sense each other, so there
        # is no hidden-terminal loss and delivery must be perfect.
        positions = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0), (60.0, 60.0)]
        sim, nodes, routers = _build_flooding_network(positions, range_m=90.0)
        counts = {}
        for member in (1, 2, 3):
            routers[member].join_group(GROUP)
            routers[member].add_delivery_listener(
                lambda data, m=member: counts.setdefault(m, []).append(data.seq)
            )
        routers[0].join_group(GROUP)
        for _ in range(3):
            routers[0].send_data(GROUP, 64)
            sim.run(until=sim.now + 1.0)
        assert counts == {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3]}

    def test_non_members_forward_but_do_not_deliver(self):
        positions = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        received = []
        routers[2].join_group(GROUP)
        routers[2].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=2.0)
        assert received == [1]
        assert routers[1].stats.data_forwarded == 1
        assert routers[1].stats.data_delivered == 0

    def test_duplicates_suppressed(self):
        positions = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0), (60.0, 60.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        received = []
        routers[3].join_group(GROUP)
        routers[3].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=2.0)
        assert received == [1]
        total_duplicates = sum(router.stats.data_duplicates for router in routers)
        assert total_duplicates >= 1

    def test_ttl_limits_propagation(self):
        # A line one hop longer than the TTL reaches: node FLOOD_TTL hears
        # the last copy (TTL 1) and does not forward it.
        positions = [(i * 60.0, 0.0) for i in range(FLOOD_TTL + 2)]
        sim, nodes, routers = _build_flooding_network(positions)
        received = {}
        for member in (FLOOD_TTL, FLOOD_TTL + 1):
            routers[member].join_group(GROUP)
            routers[member].add_delivery_listener(
                lambda data, m=member: received.setdefault(m, []).append(data.seq)
            )
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=2.0)
        assert received == {FLOOD_TTL: [1]}
        assert routers[FLOOD_TTL].stats.data_forwarded == 0

    def test_leave_group_stops_delivery(self):
        positions = [(0.0, 0.0), (60.0, 0.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        received = []
        routers[1].join_group(GROUP)
        routers[1].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=1.0)
        routers[1].leave_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=2.0)
        assert received == [1]
        assert not routers[1].is_member(GROUP)


class TestOneRebroadcast:
    def test_every_node_broadcasts_each_packet_once(self):
        positions = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=3.0)
        assert [node.mac.stats.broadcast_transmissions for node in nodes] == [1, 1, 1]
        assert [router.stats.data_forwarded for router in routers] == [0, 1, 1]


class TestRouterInterface:
    def test_router_interface_compatibility(self):
        # The flooding router exposes the same surface the gossip layer needs.
        positions = [(0.0, 0.0), (60.0, 0.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        assert routers[0].is_on_tree(GROUP)
        assert routers[0].nearest_member_via(GROUP, 1) == 1
        assert routers[0].tree_neighbors(GROUP) == []
