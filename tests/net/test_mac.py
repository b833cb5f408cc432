"""Unit tests for the CSMA/CA MAC."""

import math
import random

from repro.mobility.static import StaticMobility
from repro.net.config import RadioConfig
from repro.net.mac import CW_MAX, CW_MIN, DIFS_S, QUEUE_LIMIT, RETRY_LIMIT, SLOT_TIME_S
from repro.net.medium import Medium
from repro.net.node import Node
from repro.net.packet import Frame, Packet
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import python_calls


def _make_nodes(positions, range_m=100.0):
    sim = Simulator()
    streams = RandomStreams(7)
    medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
    nodes = []
    received = {}
    for node_id, (x, y) in enumerate(positions):
        node = Node(node_id, sim, medium, StaticMobility(x, y), streams)
        received[node_id] = []
        node.mac.on_receive = (
            lambda packet, sender, nid=node_id: received[nid].append((packet, sender))
        )
        nodes.append(node)
    return sim, medium, nodes, received


class TestUnicast:
    def test_unicast_delivery(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        nodes[0].mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
        sim.run(until=1.0)
        assert len(received[1]) == 1
        assert received[1][0][1] == 0

    def test_unicast_is_acknowledged(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        nodes[0].mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
        sim.run(until=1.0)
        assert nodes[1].mac.stats.ack_transmissions == 1
        assert nodes[0].mac.stats.acks_received == 1
        assert nodes[0].mac.stats.retransmissions == 0
        assert nodes[0].mac.state == "idle"

    def test_unicast_to_unreachable_node_fails_after_retries(self):
        failures = []
        sim, medium, nodes, received = _make_nodes([(0, 0), (500, 0)])
        nodes[0].mac.on_unicast_failure = lambda packet, hop: failures.append((packet, hop))
        nodes[0].mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
        sim.run(until=2.0)
        assert received[1] == []
        assert len(failures) == 1
        assert failures[0][1] == 1
        assert nodes[0].mac.stats.unicast_failures == 1
        assert nodes[0].mac.stats.retransmissions == RETRY_LIMIT

    def test_frames_for_other_destinations_ignored(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0), (80, 0)])
        nodes[0].mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
        sim.run(until=1.0)
        assert len(received[1]) == 1
        assert received[2] == []

    def test_queued_frames_sent_in_order(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        for index in range(5):
            nodes[0].mac.send(Packet(origin=0, destination=1, size_bytes=64, ttl=index + 1), 1)
        sim.run(until=2.0)
        ttls = [packet.ttl for packet, _ in received[1]]
        assert ttls == [1, 2, 3, 4, 5]

    def test_queue_overflow_drops_frames(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        mac = nodes[0].mac
        # The first frame contends at once; the queue holds the next
        # QUEUE_LIMIT, and every frame past them is dropped.
        accepted = [
            mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
            for _ in range(QUEUE_LIMIT + 3)
        ]
        assert accepted == [True] * (QUEUE_LIMIT + 1) + [False] * 2
        assert mac.stats.queue_drops == 2 and mac.queue_length == QUEUE_LIMIT
        sim.run(until=2.0)
        assert len(received[1]) == QUEUE_LIMIT + 1


class TestBroadcast:
    def test_broadcast_reaches_all_neighbors(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0), (80, 0), (400, 0)])
        nodes[0].mac.send(Packet(origin=0, destination=-1, size_bytes=64), -1)
        sim.run(until=1.0)
        assert len(received[1]) == 1
        assert len(received[2]) == 1
        assert received[3] == []

    def test_broadcast_not_acknowledged_or_retried(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        nodes[0].mac.send(Packet(origin=0, destination=-1, size_bytes=64), -1)
        sim.run(until=1.0)
        assert nodes[1].mac.stats.ack_transmissions == 0
        assert nodes[0].mac.stats.retransmissions == 0
        assert nodes[0].mac.stats.broadcast_transmissions == 1


class TestUpperLayerAssignment:
    """``mac.on_receive`` is assignable at any time, for broadcast and unicast
    alike: assigning it withdraws the broadcast route the node was lent."""

    def _pair(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig())
        streams = RandomStreams(7)
        nodes = [Node(i, sim, medium, StaticMobility(50.0 * i, 0.0), streams)
                 for i in range(2)]
        table_saw = []
        nodes[1].register_handler(Packet, lambda packet, sender: table_saw.append(packet.ttl))
        return sim, nodes, table_saw

    def test_constructed_stack_routes_broadcasts_through_the_nodes_table(self):
        sim, nodes, table_saw = self._pair()
        assert nodes[1].phy.broadcast_route is not None
        nodes[0].mac.send(Packet(origin=0, destination=-1, ttl=1), -1)
        nodes[0].mac.send(Packet(origin=0, destination=1, ttl=2), 1)
        sim.run(until=1.0)
        assert table_saw == [1, 2]
        assert nodes[1].mac.stats.delivered_to_upper == 2

    def test_assignment_takes_the_next_broadcast_and_the_next_unicast(self):
        sim, nodes, table_saw = self._pair()
        nodes[0].mac.send(Packet(origin=0, destination=-1, ttl=1), -1)
        sim.run(until=1.0)
        assigned_saw = []
        nodes[1].mac.on_receive = lambda packet, sender: assigned_saw.append((packet.ttl, sender))
        assert nodes[1].phy.broadcast_route is None
        assert nodes[1].mac.on_receive is not None
        nodes[0].mac.send(Packet(origin=0, destination=-1, ttl=2), -1)
        nodes[0].mac.send(Packet(origin=0, destination=1, ttl=3), 1)
        sim.run(until=2.0)
        assert table_saw == [1] and assigned_saw == [(2, 0), (3, 0)]
        assert nodes[1].mac.stats.delivered_to_upper == 3
        # The sender's own route is untouched.
        assert nodes[0].phy.broadcast_route is not None

    def test_assigning_none_mutes_the_upper_layer_but_still_counts(self):
        sim, nodes, table_saw = self._pair()
        nodes[1].mac.on_receive = None
        nodes[0].mac.send(Packet(origin=0, destination=-1), -1)
        nodes[0].mac.send(Packet(origin=0, destination=1), 1)
        sim.run(until=1.0)
        assert table_saw == [] and nodes[1].mac.stats.delivered_to_upper == 2


class TestContention:
    def test_many_senders_all_get_through_with_csma(self):
        positions = [(i * 10.0, 0.0) for i in range(6)] + [(25.0, 30.0)]
        sim, medium, nodes, received = _make_nodes(positions, range_m=200)
        sink = len(positions) - 1
        for sender in range(6):
            nodes[sender].mac.send(Packet(origin=sender, destination=sink, size_bytes=64), sink)
        sim.run(until=5.0)
        assert len(received[sink]) == 6

    def test_carrier_sense_defers_while_channel_busy(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0), (25, 20)])
        # Node 0 and node 1 both send a broadcast at the same instant; CSMA
        # backoff must separate them so node 2 receives both.
        nodes[0].mac.send(Packet(origin=0, destination=-1, size_bytes=500), -1)
        nodes[1].mac.send(Packet(origin=1, destination=-1, size_bytes=500), -1)
        sim.run(until=2.0)
        assert len(received[2]) == 2


class TestCarrierSensePoll:
    """The defer branch: most of a busy run's calendar, so it is flattened --
    and pinned here to draw, sense and schedule exactly as the plain form."""

    def _deferring_mac(self):
        """A MAC contending for a carrier that never clears, plus a clone of
        its backoff stream taken before the first draw."""
        sim, medium, nodes, _ = _make_nodes([(0, 0)])
        mac = nodes[0].mac
        reference = random.Random()
        reference.setstate(mac.rng.getstate())
        nodes[0].phy.rx_busy_until = math.inf  # carrier held busy for good
        mac.send(Packet(origin=0, destination=-1, size_bytes=64), -1)
        assert mac.state == "contend" and sim.pending_events == 1
        return sim, mac, reference

    def test_backoff_redraw_is_randrange_draw_for_draw(self):
        sim, mac, reference = self._deferring_mac()
        # The first draw is ``_start_contention``'s, the rest are the poll's.
        slots = reference.randrange(CW_MIN)
        expected = sim.now + (DIFS_S + slots * SLOT_TIME_S)
        cw = CW_MIN
        while cw <= CW_MAX:
            mac._current.cw = cw
            for _ in range(10_000):
                sim.run(max_events=1)  # one poll: defers, redraws from ``cw``
                assert sim.now == expected
                slots = reference.randrange(cw)
                expected = sim.now + (DIFS_S + slots * SLOT_TIME_S)
            cw *= 2
        assert mac.rng.getstate() == reference.getstate()
        assert mac.state == "contend" and sim.pending_events == 1

    def test_one_defer_is_two_frames_and_one_event(self):
        sim, mac, _ = self._deferring_mac()
        first = mac._pending
        calls = python_calls(sim.run, None, 1)  # max_events=1
        assert calls == ["run", "_attempt_transmission", "call_in"]
        # One event fired and one is pending again: exactly one was scheduled,
        # and it is the one the MAC can still take back.
        assert sim.events_processed == 1 and sim.pending_events == 1
        assert mac._pending is not first and sim._heap == [mac._pending]
        assert sim.cancel(first) is False and sim.cancel(mac._pending) is True

    def test_dark_radio_senses_idle_and_starts_its_fake_flight(self):
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        mac = nodes[0].mac
        busy_until = nodes[1].phy.transmit(
            Frame(src=1, dst=-1, packet=Packet(origin=1, destination=-1, size_bytes=1500)))
        mac.send(Packet(origin=0, destination=-1, size_bytes=64), -1)
        sim.run(max_events=1)
        assert mac.state == "contend"  # a live radio defers to the carrier
        nodes[0].phy.power_down()
        sim.run(max_events=1)
        assert sim.now < busy_until and mac.state == "transmit"

    def test_dark_radio_defers_to_its_own_truncated_flight(self):
        # The radio went down under its own flight (an ACK, say): dark, it
        # senses nothing, but ``transmitting`` stays up until the medium ends
        # the truncated flight, and the MAC must not start another before.
        sim, medium, nodes, received = _make_nodes([(0, 0)])
        mac, phy = nodes[0].mac, nodes[0].phy
        flight_end = phy.transmit(
            Frame(src=0, dst=-1, packet=Packet(origin=0, destination=-1, size_bytes=1500)))
        mac.send(Packet(origin=0, destination=-1, size_bytes=64), -1)
        phy.power_down()
        assert phy.transmitting and not phy.carrier_busy()
        sim.run(until=flight_end / 2)
        assert sim.events_processed > 3 and mac.state == "contend"
        assert mac.stats.broadcast_transmissions == 0
        sim.run()
        assert mac.stats.broadcast_transmissions == 1 and mac.state == "idle"


class TestEndOfFlightHook:
    """The phy's end-of-flight notification is frame-tagged."""

    def test_foreign_flight_end_does_not_advance_data_state_machine(self):
        # Regression for the fused "transmission done" event: an end-of-
        # flight notification for a different frame (an ACK, or a stale
        # disabled-radio fake flight ending out of order) must not be
        # mistaken for the current data frame's end.
        sim, medium, nodes, received = _make_nodes([(0, 0), (50, 0)])
        mac = nodes[0].mac
        # A disabled radio still walks the whole state machine on fake
        # flights, which is where out-of-order notifications can happen.
        nodes[0].phy.power_down()
        mac.send(Packet(origin=0, destination=1, size_bytes=64), 1)
        while mac.state != "transmit":
            sim.run(max_events=1)
        data_frame = mac._current.frame
        # A foreign flight (e.g. an ACK queued before the data frame) ends
        # while the data frame is still in the air.
        stale = Frame(src=0, dst=1, packet=Packet(origin=0, destination=1, size_bytes=14))
        nodes[0].phy.on_transmission_finished(stale)
        assert mac.state == "transmit"
        assert mac._current is not None and mac._current.frame is data_frame
        # The real end of flight still advances the machine.
        sim.run(until=sim.now + 0.01)
        assert mac.state == "wait_ack"
