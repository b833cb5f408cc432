"""Tests for the ODMRP mesh-based multicast protocol."""

import pytest

from repro.mobility.static import StaticMobility
from repro.multicast.odmrp import FORWARDING_LIFETIME_S, OdmrpRouter
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.routing.aodv import AodvRouter
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workload.scenario import Scenario, ScenarioConfig, run_scenario
from tests.conftest import GROUP


def _build_odmrp_network(positions, range_m=80.0):
    sim = Simulator()
    streams = RandomStreams(11)
    medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
    nodes, routers = [], []
    for node_id, (x, y) in enumerate(positions):
        node = Node(node_id, sim, medium, StaticMobility(x, y), streams)
        aodv = AodvRouter(node)
        router = OdmrpRouter(node, aodv)
        nodes.append(node)
        routers.append(router)
    for node in nodes:
        node.start()
    return sim, nodes, routers


def _line(count, spacing=60.0):
    return [(i * spacing, 0.0) for i in range(count)]


class TestMeshFormation:
    def test_forwarding_group_established_between_source_and_member(self):
        sim, nodes, routers = _build_odmrp_network(_line(4))
        routers[3].join_group(GROUP)
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)   # starts the join-query floods
        sim.run(until=5.0)
        # The intermediate nodes became forwarders for the group.
        assert routers[1].is_forwarder(GROUP)
        assert routers[2].is_forwarder(GROUP)
        assert not routers[3].is_forwarder(GROUP) or routers[3].is_member(GROUP)

    def test_forwarding_state_expires_when_source_stops(self):
        sim, nodes, routers = _build_odmrp_network(_line(3))
        routers[2].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        assert routers[1].is_forwarder(GROUP)
        routers[0].stop_source(GROUP)
        sim.run(until=sim.now + FORWARDING_LIFETIME_S + 1.0)
        assert not routers[1].is_forwarder(GROUP)

    def test_tree_neighbors_expose_mesh_upstreams(self):
        sim, nodes, routers = _build_odmrp_network(_line(3))
        routers[2].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        assert routers[2].tree_neighbors(GROUP) == [1]
        assert routers[1].tree_neighbors(GROUP) == [0]


class TestDataDelivery:
    def test_multi_hop_delivery_through_forwarders(self):
        sim, nodes, routers = _build_odmrp_network(_line(5))
        received = []
        routers[4].join_group(GROUP)
        routers[4].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].join_group(GROUP)
        # First packet also bootstraps the mesh, so give it a refresh cycle.
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        for _ in range(3):
            routers[0].send_data(GROUP, 64)
            sim.run(until=sim.now + 1.0)
        assert received[-3:] == [2, 3, 4]

    def test_multiple_members_all_receive(self):
        positions = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (60.0, 60.0)]
        sim, nodes, routers = _build_odmrp_network(positions, range_m=90.0)
        counts = {}
        for member in (2, 3):
            routers[member].join_group(GROUP)
            routers[member].add_delivery_listener(
                lambda data, m=member: counts.setdefault(m, []).append(data.seq)
            )
        routers[0].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        for _ in range(2):
            routers[0].send_data(GROUP, 64)
            sim.run(until=sim.now + 1.0)
        assert counts[2][-2:] == [2, 3]
        assert counts[3][-2:] == [2, 3]

    def test_duplicates_suppressed_in_mesh(self):
        # A diamond: two disjoint forwarders can both relay, but the member
        # must deliver each packet once.
        positions = [(0.0, 0.0), (60.0, 30.0), (60.0, -30.0), (120.0, 0.0)]
        sim, nodes, routers = _build_odmrp_network(positions, range_m=80.0)
        received = []
        routers[3].join_group(GROUP)
        routers[3].add_delivery_listener(lambda data: received.append(data.seq))
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        routers[0].send_data(GROUP, 64)
        sim.run(until=sim.now + 2.0)
        assert received.count(2) == 1

    def test_non_member_non_forwarder_does_not_deliver_or_forward(self):
        sim, nodes, routers = _build_odmrp_network(_line(3) + [(60.0, 500.0)])
        routers[2].join_group(GROUP)
        routers[0].send_data(GROUP, 64)
        sim.run(until=5.0)
        outsider = routers[3]
        assert outsider.stats.data_delivered == 0
        assert outsider.stats.data_forwarded == 0


class TestScenarioIntegration:
    def test_scenario_builder_supports_odmrp(self):
        config = ScenarioConfig.quick(
            seed=6, protocol="odmrp", gossip_enabled=False,
            transmission_range_m=65.0, max_speed_mps=1.0,
        )
        result = run_scenario(config)
        assert result.summary.delivery_ratio > 0.5
        assert "odmrp.data_forwarded" in result.protocol_stats

    def test_gossip_layers_over_odmrp(self):
        base = ScenarioConfig.quick(
            seed=6, protocol="odmrp", transmission_range_m=55.0, max_speed_mps=2.0,
        )
        plain = run_scenario(base.with_gossip(False))
        with_gossip = run_scenario(base.with_gossip(True))
        assert with_gossip.summary.mean >= plain.summary.mean - 1.0
        assert with_gossip.protocol_stats.get("gossip.rounds", 0) > 0


def test_known_deviation_source_keeps_querying_after_its_last_packet():
    """KNOWN DEVIATION, pinned not endorsed (ROADMAP 1(b), follow-up (g)).

    Nothing in a run calls ``OdmrpRouter.stop_source``, so a source floods a
    join query every ``JOIN_QUERY_INTERVAL_S`` until the run ends, after its
    CBR source has stopped, against the module's "while a source has data
    to send".  It is in every ODMRP digest; the fix moves them.
    """
    config = ScenarioConfig.quick(seed=1, protocol="odmrp", gossip_enabled=False)
    scenario = Scenario(config).build()
    sent_at = []
    for router in scenario.multicast.values():
        send = router._send_join_query
        router._send_join_query = lambda group, send=send: (
            sent_at.append(scenario.sim.now), send(group))
    scenario.run()
    late = [at for at in sent_at if at > config.source_stop_s]
    assert config.source_stop_s == 55.0
    assert len(sent_at) == 17
    assert len(late) == 3
    assert max(sent_at) == pytest.approx(63.0)
