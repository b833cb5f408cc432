"""Anonymous Gossip layered over a different multicast protocol.

The paper argues AG "can be implemented on top of any of the tree-based and
mesh-based protocols with little or no overhead".  The scenario builder can
layer the gossip agents over the flooding baseline, which exercises exactly
the portability interface (is_member / tree_neighbors / nearest_member_via /
add_delivery_listener) the agent relies on.
"""

from repro.core.config import GossipConfig
from repro.core.gossip import GossipAgent
from repro.multicast.flooding import FloodingRouter
from repro.multicast.messages import MulticastData
from repro.workload.scenario import ScenarioConfig, run_scenario
from tests.conftest import GROUP
from tests.multicast.test_flooding import _build_flooding_network


class TestGossipOverFloodingUnits:
    def test_agent_recovers_losses_over_flooding(self):
        # Three nodes in a line; the far member is cut off (the relay
        # drops every data packet it hears, so the flood never reaches it),
        # so only gossip can deliver the packets.
        positions = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)]
        sim, nodes, routers = _build_flooding_network(positions)
        aodv = {node.node_id: router.aodv for node, router in zip(nodes, routers)}
        agents = {
            node.node_id: GossipAgent(node, router, aodv[node.node_id], GROUP, GossipConfig())
            for node, router in zip(nodes, routers)
        }
        # The relay's receive table entry for data, set once every receiver
        # has registered (registering clears the table).
        nodes[1]._dispatch_cache[MulticastData] = lambda data, from_node: None
        recovered = []
        agents[2].add_recovery_listener(lambda data: recovered.append(data.seq))
        for member in (0, 2):
            routers[member].join_group(GROUP)
        for node in nodes:
            node.start()
        for router in aodv.values():
            router.start()
        for agent in agents.values():
            agent.start()
        sim.run(until=5.0)
        for _ in range(3):
            routers[0].send_data(GROUP, 64)
            sim.run(until=sim.now + 1.0)
        sim.run(until=sim.now + 30.0)
        assert sorted(recovered) == [1, 2, 3]

    def test_scenario_builder_layers_gossip_over_flooding(self):
        config = ScenarioConfig.quick(
            seed=6, protocol="flooding", gossip_enabled=True,
            transmission_range_m=55.0, max_speed_mps=2.0,
        )
        result = run_scenario(config)
        assert "gossip.rounds" in result.protocol_stats
        assert result.summary.delivery_ratio > 0.5

    def test_flooding_with_gossip_not_worse_than_flooding_alone(self):
        base = ScenarioConfig.quick(
            seed=6, protocol="flooding", transmission_range_m=55.0, max_speed_mps=2.0,
        )
        plain = run_scenario(base.with_gossip(False))
        with_gossip = run_scenario(base.with_gossip(True))
        assert with_gossip.summary.mean >= plain.summary.mean - 1.0
