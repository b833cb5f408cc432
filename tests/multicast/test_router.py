"""The data plane every multicast router shares (``MulticastRouter``).

MAODV, ODMRP and flooding number their data, deliver to a member source and
suppress duplicates the same way; one contract test runs over each.
"""

import pytest

from repro.mobility.static import StaticMobility
from repro.multicast.flooding import FloodingRouter
from repro.multicast.maodv import MaodvRouter
from repro.multicast.messages import MulticastData
from repro.multicast.odmrp import OdmrpRouter
from repro.multicast.router import MulticastRouter
from repro.net.addressing import make_group_address
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.routing.aodv import AodvRouter
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import GROUP, line_topology

OTHER_GROUP = make_group_address(1)
ROUTERS = [MaodvRouter, OdmrpRouter, FloodingRouter]


def _line(router_class):
    """Three nodes 60 m apart (range 100 m), each with AODV and the router."""
    sim = Simulator()
    streams = RandomStreams(1)
    medium = Medium(sim, RadioConfig(transmission_range_m=100.0))
    nodes, routers = [], []
    for node_id, (x, y) in enumerate(line_topology(3, 60.0)):
        node = Node(node_id, sim, medium, StaticMobility(x, y), streams)
        aodv = AodvRouter(node)
        aodv.start()
        nodes.append(node)
        routers.append(router_class(node, aodv))
    return sim, nodes, routers


@pytest.mark.parametrize("router_class", ROUTERS, ids=lambda cls: cls.__name__)
class TestMulticastRouterContract:
    def test_is_a_multicast_router_with_its_own_stream(self, router_class):
        _, nodes, routers = _line(router_class)
        router = routers[1]
        assert isinstance(router, MulticastRouter)
        assert router.node_id == 1 and router.sim is nodes[1].sim
        assert router.rng is nodes[1].streams.for_node(router_class.stream, 1)

    def test_send_data_numbers_per_group_and_delivers_once_to_a_member_source(
        self, router_class
    ):
        _, _, routers = _line(router_class)
        source = routers[0]
        source.join_group(GROUP)
        delivered = []
        source.add_delivery_listener(lambda data: delivered.append((data.group, data.seq)))
        sent = [source.send_data(GROUP), source.send_data(GROUP),
                source.send_data(OTHER_GROUP)]
        assert [(data.group, data.seq, data.source) for data in sent] == [
            (GROUP, 1, 0), (GROUP, 2, 0), (OTHER_GROUP, 1, 0)]
        assert delivered == [(GROUP, 1), (GROUP, 2)]  # not a member of the other
        assert source.stats.data_originated == 3
        assert source.stats.data_delivered == 2
        assert all(data.mid in source._seen_data for data in sent)

    def test_a_duplicate_copy_is_counted_and_not_delivered(self, router_class):
        sim, nodes, routers = _line(router_class)
        routers[0].join_group(GROUP)
        sim.run(until=3.0)
        routers[2].join_group(GROUP)
        sim.run(until=8.0)
        if router_class is MaodvRouter:
            assert 1 in routers[2].tree_neighbors(GROUP)  # data is taken from the tree
        delivered = []
        routers[2].add_delivery_listener(lambda data: delivered.append(data.mid))
        data = MulticastData(origin=0, destination=GROUP, group=GROUP, source=0, seq=99,
                             ttl=4, sent_at=sim.now)
        duplicates = routers[2].stats.data_duplicates
        nodes[2].deliver(data, 1)
        nodes[2].deliver(data.forwarded(ttl=3, uid=data.uid), 1)
        assert delivered == [(0, 99)]
        assert routers[2].stats.data_duplicates == duplicates + 1
