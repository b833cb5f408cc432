"""Integration tests for AODV on hand-built static topologies."""

from dataclasses import dataclass

import pytest

from repro.net.packet import Packet, UnicastData
from repro.routing.aodv import NEIGHBOR_TIMEOUT_S, RREQ_RETRIES
from tests.conftest import build_network, line_topology


@dataclass
class _AppMessage(Packet):
    text: str = ""


def _attach_receiver(network, node_id):
    received = []
    network.nodes[node_id].register_handler(
        _AppMessage, lambda packet, sender: received.append((packet, sender))
    )
    return received


class TestRouteDiscovery:
    def test_single_hop_delivery(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        received = _attach_receiver(network, 1)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=1, text="hello"), 1)
        network.run(2.0)
        assert len(received) == 1
        assert received[0][0].text == "hello"
        assert received[0][1] == 0

    def test_multi_hop_delivery_over_line(self):
        network = build_network(line_topology(5, 70.0), range_m=100)
        received = _attach_receiver(network, 4)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=4, text="far"), 4)
        network.run(5.0)
        assert len(received) == 1
        route = network.aodv[0].route_table.lookup(4, network.sim.now)
        assert route is not None
        assert route.hop_count == 4
        assert route.next_hop == 1

    def test_delivery_to_self_bypasses_network(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        received = _attach_receiver(network, 0)
        network.start()
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=0, text="loop"), 0)
        network.run(0.5)
        assert len(received) == 1

    def test_intermediate_nodes_learn_routes(self):
        network = build_network(line_topology(4, 70.0), range_m=100)
        _attach_receiver(network, 3)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=3, text="x"), 3)
        network.run(5.0)
        # The middle node has forward and reverse routes from relaying.
        middle = network.aodv[1].route_table
        assert middle.lookup(0, network.sim.now) is not None
        assert middle.lookup(3, network.sim.now) is not None

    def test_packets_buffered_until_route_found(self):
        network = build_network(line_topology(3, 70.0), range_m=100)
        received = _attach_receiver(network, 2)
        network.start()
        network.run(1.0)
        for index in range(3):
            network.aodv[0].send_unicast(_AppMessage(origin=0, destination=2, text=str(index)), 2)
        network.run(5.0)
        assert sorted(packet.text for packet, _ in received) == ["0", "1", "2"]

    def test_discovery_fails_for_unreachable_destination(self):
        positions = line_topology(2, 50.0) + [(5000.0, 5000.0)]
        network = build_network(positions, range_m=100)
        received = _attach_receiver(network, 2)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=2, text="lost"), 2)
        network.run(10.0)
        assert received == []
        assert network.aodv[0].stats.discovery_failures == 1
        assert network.aodv[0].stats.data_dropped_no_route >= 1

    def test_rreq_retries_respect_configuration(self):
        positions = line_topology(1, 50.0) + [(5000.0, 5000.0)]
        network = build_network(positions, range_m=100)
        network.start()
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=1, text="x"), 1)
        network.run(10.0)
        expected_attempts = RREQ_RETRIES + 1
        assert network.aodv[0].stats.rreq_originated == expected_attempts


class TestNeighborSensing:
    def test_hello_beacons_populate_neighbor_sets(self):
        network = build_network(line_topology(3, 70.0), range_m=100)
        network.start()
        network.run(3.0)
        assert network.aodv[0].neighbors() == [1]
        assert network.aodv[1].neighbors() == [0, 2]
        assert network.aodv[2].neighbors() == [1]

    def test_neighbor_loss_detected_after_silence(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        losses = []
        network.aodv[0].add_neighbor_loss_listener(losses.append)
        network.start()
        network.run(3.0)
        assert network.aodv[0].neighbors() == [1]
        network.move(1, 5000.0, 5000.0)
        network.run(6.0)
        assert network.aodv[0].neighbors() == []
        assert losses == [1]

    def test_hello_installs_one_hop_route(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        network.start()
        network.run(2.0)
        route = network.aodv[0].route_table.lookup(1, network.sim.now)
        assert route is not None
        assert route.hop_count == 1


class TestLivenessTable:
    """AODV's ``_neighbors`` *is* the node's liveness table: the medium and
    ``Node.deliver`` write it, AODV reads it and deletes from it.  Its
    iteration order is the order ``_check_neighbors`` declares losses in, so
    it is part of every digest and pinned here entry by entry."""

    def _triangle(self):
        # Everyone hears everyone; AODV is attached but never started, so
        # the only traffic is the script's.
        network = build_network([(0.0, 0.0), (60.0, 0.0), (30.0, 50.0)], range_m=100)
        for node_id in (0, 1, 2):
            _attach_receiver(network, node_id)
        return network

    def test_same_dict_object_everywhere(self):
        network = self._triangle()
        for node_id, router in network.aodv.items():
            node = network.nodes[node_id]
            assert router._neighbors is node.heard
            assert node.phy.broadcast_route[3] is node.heard

    def test_scripted_exchange_pins_membership_times_and_order(self):
        network = self._triangle()
        sim, nodes, aodv = network.sim, network.nodes, network.aodv
        # t=1: node 2 broadcasts (medium-delivered at 0 and 1).
        sim.call_at(1.0, nodes[2].send_frame, (_AppMessage(origin=2, destination=-1), -1))
        # t=2: node 1 unicasts to node 0 (MAC-delivered; 2 overhears, and all
        # hear 0's ACK: neither is a packet for the upper layer).
        sim.call_at(2.0, nodes[1].send_frame, (_AppMessage(origin=1, destination=0), 0))
        # t=3: node 0 delivers locally an envelope whose origin, 7, is no
        # radio neighbour of anyone.
        envelope = UnicastData(origin=7, destination=0,
                               payload=_AppMessage(origin=7, destination=0))
        sim.call_at(3.0, aodv[0]._deliver_locally, (envelope,))
        # t=4: node 1 broadcasts; t=5: node 2 again (refreshes, keeps its place).
        sim.call_at(4.0, nodes[1].send_frame, (_AppMessage(origin=1, destination=-1), -1))
        sim.call_at(5.0, nodes[2].send_frame, (_AppMessage(origin=2, destination=-1), -1))
        network.run(5.2)
        order = {nid: list(aodv[nid]._neighbors) for nid in (0, 1, 2)}
        assert order == {0: [2, 1, 7], 1: [2], 2: [1]}
        heard_at = {nid: {n: int(t) for n, t in aodv[nid]._neighbors.items()}
                    for nid in (0, 1, 2)}
        assert heard_at == {0: {2: 5, 1: 4, 7: 3}, 1: {2: 5}, 2: {1: 4}}
        assert aodv[0].neighbors() == [1, 2, 7]
        network.run(0.8)  # t=6: 7 (heard at 3) is past the 2.4 s timeout
        assert aodv[0].neighbors() == [1, 2] and list(aodv[0]._neighbors) == [2, 1, 7]

    def test_self_and_negative_senders_are_not_recorded(self):
        network = self._triangle()
        node = network.nodes[1]
        node.deliver(_AppMessage(origin=1, destination=1), 1)
        node.deliver(_AppMessage(origin=1, destination=1), -1)
        assert network.aodv[1]._neighbors == {} and network.aodv[1].neighbors() == []

    def test_mac_failure_and_timeout_delete_from_the_object_the_medium_writes(self):
        network = self._triangle()
        sim, nodes, aodv = network.sim, network.nodes, network.aodv
        losses = []
        aodv[0].add_neighbor_loss_listener(losses.append)
        sim.call_at(1.0, nodes[1].send_frame, (_AppMessage(origin=1, destination=-1), -1))
        sim.call_at(1.5, nodes[2].send_frame, (_AppMessage(origin=2, destination=-1), -1))
        network.run(2.0)
        assert list(nodes[0].heard) == [1, 2]
        aodv[0]._on_mac_failure(_AppMessage(origin=0, destination=1), 1)
        assert list(nodes[0].heard) == [2] and losses == [1]
        # Node 1 is heard again: re-inserted by the medium, now *after* 2.
        sim.call_at(2.5, nodes[1].send_frame, (_AppMessage(origin=1, destination=-1), -1))
        network.run(1.0)
        assert list(nodes[0].heard) == [2, 1]
        sim.run(until=2.5 + NEIGHBOR_TIMEOUT_S + 0.1)
        aodv[0]._check_neighbors()
        assert nodes[0].heard == {} and losses == [1, 2, 1]
        assert aodv[0].stats.neighbor_losses == 3

    def test_handler_registered_mid_run_sees_every_later_copy(self):
        network = build_network(line_topology(3, 70.0), range_m=100)
        network.start()
        # An early broadcast caches "no receiver" for the type at 0 and 2.
        network.sim.call_in(1.0, network.nodes[1].send_frame,
                            (_AppMessage(origin=1, destination=-1), -1))
        network.run(2.5)  # hellos flowing: every receiver in use is cached by now
        handled = []  # (time, node, from, uid) at the handler
        for node in network.nodes:
            node.register_handler(
                _AppMessage,
                lambda packet, sender, node=node: handled.append(
                    (node.sim.now, node.node_id, sender, packet.uid)),
            )
        payload = _AppMessage(origin=0, destination=2, text="far")
        network.aodv[0].send_unicast(payload, 2)
        broadcast = _AppMessage(origin=1, destination=-1)
        network.sim.call_in(0.5, network.nodes[1].send_frame, (broadcast, -1))
        network.run(3.0)
        # The locally delivered payload (from its origin, see the known
        # deviation below) and the medium-delivered broadcast at 0 and 2.
        assert sorted(entry[1:] for entry in handled) == [
            (0, 1, broadcast.uid), (2, 0, payload.uid), (2, 1, broadcast.uid),
        ]
        # The MAC-delivered unicast envelope reached the relay's router.
        assert network.aodv[1].stats.data_forwarded == 1

    def test_known_deviation_multihop_origin_becomes_a_phantom_neighbor(self):
        """KNOWN DEVIATION, pinned not endorsed (ROADMAP direction 1(b)).

        ``_deliver_locally`` hands ``envelope.origin`` to ``Node.deliver`` as
        ``from_node``, so the origin of a *multi-hop* unicast enters the
        destination's one-hop neighbour table, later times out and is declared
        a lost neighbour (route invalidation, MAODV's loss listener).  It is
        in every digest; the fix moves them and belongs to direction 1.
        """
        network = build_network(line_topology(3, 70.0), range_m=100)
        _attach_receiver(network, 2)
        losses = []
        network.aodv[2].add_neighbor_loss_listener(losses.append)
        network.start()
        network.run(1.5)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=2, text="x"), 2)
        network.run(1.5)
        assert network.medium.neighbors_of(2) == [1]  # 0 is two hops away
        assert network.aodv[2].neighbors() == [0, 1]  # ...yet listed as a neighbour
        network.run(NEIGHBOR_TIMEOUT_S + 1.5)
        assert losses == [0]  # the phantom times out; node 1 keeps beaconing
        assert network.aodv[2].stats.neighbor_losses == 1
        assert network.aodv[2].neighbors() == [1]


class TestLinkBreakHandling:
    def test_route_invalidated_when_next_hop_disappears(self):
        network = build_network(line_topology(3, 70.0), range_m=100)
        received = _attach_receiver(network, 2)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=2, text="a"), 2)
        network.run(3.0)
        assert len(received) == 1
        # Break the relay: node 1 walks away.
        network.move(1, 5000.0, 5000.0)
        network.run(6.0)
        assert network.aodv[0].route_table.lookup(2, network.sim.now) is None
        assert network.aodv[0].stats.rerr_sent >= 1

    def test_new_route_discovered_after_break(self):
        # Square topology: 0-1-3 and 0-2-3 are both two-hop paths.
        positions = [(0.0, 0.0), (70.0, 0.0), (0.0, 70.0), (70.0, 70.0)]
        network = build_network(positions, range_m=90)
        received = _attach_receiver(network, 3)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=3, text="first"), 3)
        network.run(3.0)
        assert len(received) == 1
        first_hop = network.aodv[0].route_table.lookup(3, network.sim.now).next_hop
        # Remove the relay that was used; the other one remains.
        network.move(first_hop, 5000.0, 5000.0)
        network.run(6.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=3, text="second"), 3)
        network.run(5.0)
        assert [packet.text for packet, _ in received] == ["first", "second"]
        assert network.aodv[0].route_table.lookup(3, network.sim.now).next_hop != first_hop


class TestStatistics:
    def test_counters_track_traffic(self):
        network = build_network(line_topology(3, 70.0), range_m=100)
        _attach_receiver(network, 2)
        network.start()
        network.run(1.0)
        network.aodv[0].send_unicast(_AppMessage(origin=0, destination=2, text="x"), 2)
        network.run(3.0)
        assert network.aodv[0].stats.rreq_originated == 1
        assert network.aodv[0].stats.data_originated == 1
        assert network.aodv[2].stats.rrep_originated == 1
        assert network.aodv[2].stats.data_delivered == 1
        assert network.aodv[1].stats.data_forwarded == 1
        assert network.aodv[0].stats.hello_sent > 0
