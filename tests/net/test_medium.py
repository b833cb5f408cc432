"""Unit tests for the shared wireless medium (propagation and collisions)."""

import pytest

from repro.mobility.trace import WaypointTraceMobility
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator
from tests.net.reference_medium import MEDIA


class _StubNode:
    """Minimal node stand-in: an id and a fixed position."""

    def __init__(self, node_id, x, y):
        self.node_id = node_id
        self._position = (x, y)

    def position(self, at_time):
        return self._position

    def move(self, x, y):
        self._position = (x, y)


class _TraceNode:
    """Node stand-in whose position follows a waypoint trace."""

    def __init__(self, node_id, waypoints):
        self.node_id = node_id
        self.mobility = WaypointTraceMobility(waypoints)

    def position(self, at_time):
        return self.mobility.position(at_time)


def _make_network(positions, range_m=100.0, medium_cls=Medium):
    sim = Simulator()
    medium = medium_cls(sim, RadioConfig(transmission_range_m=range_m))
    phys = []
    received = {}
    for node_id, (x, y) in enumerate(positions):
        phy = Phy(_StubNode(node_id, x, y), medium)
        received[node_id] = []
        phy.set_receive_callback(
            lambda frame, sender, nid=node_id: received[nid].append((frame, sender))
        )
        phys.append(phy)
    return sim, medium, phys, received


def _frame(src, dst, size=100):
    return Frame(src=src, dst=dst, packet=Packet(origin=src, destination=dst, size_bytes=size))


class TestPropagation:
    def test_frame_delivered_to_node_in_range(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, 1))
        sim.run()
        assert len(received[1]) == 1
        assert received[1][0][1] == 0

    def test_frame_not_delivered_out_of_range(self):
        sim, medium, phys, received = _make_network([(0, 0), (150, 0)], range_m=100)
        phys[0].transmit(_frame(0, 1))
        sim.run()
        assert received[1] == []
        assert medium.stats.deliveries == 0

    def test_broadcast_reaches_all_in_range(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0), (80, 0), (300, 0)])
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert len(received[1]) == 1
        assert len(received[2]) == 1
        assert received[3] == []

    def test_sender_does_not_receive_own_frame(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert received[0] == []

    def test_airtime_scales_with_size(self):
        config = RadioConfig(bitrate_bps=2_000_000.0, preamble_s=0.0)
        assert config.airtime(250) == pytest.approx(0.001)
        assert config.airtime(500) == pytest.approx(0.002)

    def test_delivery_happens_after_airtime(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, 1, size=250))
        sim.run()
        expected = medium.config.airtime(_frame(0, 1, size=250).size_bytes)
        assert sim.now == pytest.approx(expected)

    def test_neighbors_of_respects_range(self):
        sim, medium, phys, received = _make_network([(0, 0), (60, 0), (120, 0)], range_m=100)
        assert medium.neighbors_of(0) == [1]
        assert medium.neighbors_of(1) == [0, 2]

    def test_distance_between(self):
        sim, medium, phys, _ = _make_network([(0, 0), (30, 40)])
        assert medium.distance_between(0, 1) == pytest.approx(50.0)

    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_radios_at_opposite_edges_are_not_neighbours(self, medium_index):
        # Radios near opposite edges of a 200 m area are 190 m apart, on the
        # grid and on the linear-scan oracle alike.
        sim = Simulator()
        medium = MEDIA[medium_index](sim, RadioConfig(transmission_range_m=30.0))
        for node_id, (x, y) in enumerate([(5.0, 100.0), (195.0, 100.0)]):
            Phy(_StubNode(node_id, x, y), medium)
        assert medium.neighbors_of(0) == []
        assert medium.distance_between(0, 1) == pytest.approx(190.0)

    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_radios_at_opposite_corners_are_not_neighbours(self, medium_index):
        # (2, 2) and (198, 198) are a full diagonal apart; (2, 2) and (8, 8)
        # share a corner cell and hear each other.
        sim, medium, phys, received = _make_network(
            [(2.0, 2.0), (198.0, 198.0), (8.0, 8.0)], range_m=10.0,
            medium_cls=MEDIA[medium_index])
        assert medium.neighbors_of(0) == [2]
        assert medium.neighbors_of(1) == []
        assert medium.distance_between(0, 1) == pytest.approx(196.0 * 2 ** 0.5)
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert [sender for _, sender in received[2]] == [0]
        assert received[1] == []

    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_carrier_sense_ends_at_the_range(self, medium_index):
        # A transmission near one edge is sensed 14 m away and not at the
        # opposite edge, 198 m away.
        sim, medium, phys, _ = _make_network(
            [(1.0, 50.0), (199.0, 50.0), (15.0, 50.0)], range_m=20.0,
            medium_cls=MEDIA[medium_index])
        phys[0].transmit(_frame(0, -1))
        assert phys[2].carrier_busy()
        assert not phys[1].carrier_busy()
        sim.run()
        assert not phys[2].carrier_busy()

    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_negative_coordinates_match_the_linear_scan(self, medium_index):
        # A waypoint trace may leave the area; radios left of x = 0 are heard
        # and missed exactly as the linear scan hears and misses them.
        sim, medium, phys, received = _make_network(
            [(60.0, 50.0), (-10.0, 50.0), (-80.0, 50.0)], range_m=75.0,
            medium_cls=MEDIA[medium_index])
        assert medium.neighbors_of(1) == [0, 2]
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert [sender for _, sender in received[1]] == [0]
        assert received[2] == []

    def test_duplicate_registration_rejected(self):
        sim, medium, phys, _ = _make_network([(0, 0)])
        with pytest.raises(ValueError):
            medium.register(phys[0])


class TestCollisions:
    def test_overlapping_transmissions_collide_at_common_receiver(self):
        # Nodes 0 and 2 both transmit to node 1 (in the middle) at once.
        sim, medium, phys, received = _make_network([(0, 0), (50, 0), (100, 0)])
        phys[0].transmit(_frame(0, 1))
        phys[2].transmit(_frame(2, 1))
        sim.run()
        assert received[1] == []
        assert medium.stats.collisions > 0

    def test_spatial_reuse_no_collision_when_far_apart(self):
        # Two disjoint pairs far from each other transmit simultaneously.
        sim, medium, phys, received = _make_network(
            [(0, 0), (50, 0), (1000, 0), (1050, 0)], range_m=100
        )
        phys[0].transmit(_frame(0, 1))
        phys[2].transmit(_frame(2, 3))
        sim.run()
        assert len(received[1]) == 1
        assert len(received[3]) == 1
        assert medium.stats.collisions == 0

    def test_half_duplex_receiver_transmitting_misses_frame(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        phys[1].transmit(_frame(1, -1))
        phys[0].transmit(_frame(0, 1))
        sim.run()
        assert received[1] == []
        assert medium.stats.half_duplex_losses > 0

    def test_staggered_transmissions_do_not_collide(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0), (100, 0)])
        airtime = medium.config.airtime(_frame(0, 1).size_bytes)
        phys[0].transmit(_frame(0, 1))
        sim.call_in(airtime * 2, lambda: phys[2].transmit(_frame(2, 1)))
        sim.run()
        assert len(received[1]) == 2


class TestCarrierSense:
    def test_busy_while_neighbor_transmits(self):
        sim, medium, phys, _ = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, 1))
        assert phys[1].carrier_busy()
        sim.run()
        assert not phys[1].carrier_busy()

    def test_not_busy_when_transmitter_out_of_sense_range(self):
        sim, medium, phys, _ = _make_network([(0, 0), (500, 0)], range_m=100)
        phys[0].transmit(_frame(0, -1))
        assert not phys[1].carrier_busy()
        sim.run()

    def test_own_transmission_counts_as_busy(self):
        sim, medium, phys, _ = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, 1))
        assert phys[0].carrier_busy()
        sim.run()

    def test_radio_cannot_double_transmit(self):
        sim, medium, phys, _ = _make_network([(0, 0), (50, 0)])
        phys[0].transmit(_frame(0, 1))
        with pytest.raises(RuntimeError):
            phys[0].transmit(_frame(0, 1))
        sim.run()


class TestFailureInjection:
    def test_powered_down_receiver_gets_no_reception_entry(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        phys[1].power_down()
        phys[0].transmit(_frame(0, 1))
        assert not phys[1].carrier_busy()
        sim.run()
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.disabled_discards == 0  # never entered the set

    def test_power_down_mid_transmission_discards_delivery(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        sim.call_in(airtime / 2, phys[1].power_down)
        sim.run()
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.disabled_discards == 1

    def test_power_cycle_mid_transmission_corrupts_frame(self):
        # Down and back up during the airtime: the radio is enabled when the
        # frame ends but missed part of it, so it cannot decode.
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        sim.call_in(airtime / 3, phys[1].power_down)
        sim.call_in(airtime / 2, phys[1].power_up)
        sim.call_in(airtime * 0.75, lambda: setattr(
            self, "_busy_after_cycle", phys[1].carrier_busy()
        ))
        sim.run()
        assert self._busy_after_cycle  # rejoined the interference set
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.disabled_discards == 0

    def test_dead_radio_does_not_inflate_collisions(self):
        # 0 and 2 are out of each other's range but both cover 1.
        positions = [(0, 0), (90, 0), (180, 0)]
        sim, medium, phys, received = _make_network(positions, range_m=100)
        phys[0].transmit(_frame(0, 1))
        phys[2].transmit(_frame(2, 1))
        sim.run()
        assert medium.stats.collisions == 2  # sanity: alive radio collides

        sim, medium, phys, received = _make_network(positions, range_m=100)
        phys[1].power_down()
        phys[0].transmit(_frame(0, 1))
        phys[2].transmit(_frame(2, 1))
        sim.run()
        assert medium.stats.collisions == 0
        assert medium.stats.deliveries == 0

    def test_neighbors_of_excludes_powered_down_radios(self):
        sim, medium, phys, _ = _make_network([(0, 0), (50, 0), (60, 0)])
        assert medium.neighbors_of(0) == [1, 2]
        phys[1].power_down()
        assert medium.neighbors_of(0) == [2]
        assert medium.neighbors_of(1) == []
        phys[1].power_up()
        assert medium.neighbors_of(0) == [1, 2]
        assert medium.neighbors_of(1) == [0, 2]

    def test_sender_crash_mid_transmission_truncates_frame(self):
        # A radio that dies while transmitting stops radiating: its frame is
        # truncated and nobody can decode it.
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        sim.call_in(airtime / 2, phys[0].power_down)
        sim.run()
        assert received[1] == []
        assert medium.stats.deliveries == 0

    def test_power_cycles_within_one_airtime_count_one_discard(self):
        # down -> up -> down inside one airtime: the radio must not collect
        # duplicate copies of the same in-flight frame.
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        sim.call_in(airtime * 0.2, phys[1].power_down)
        sim.call_in(airtime * 0.4, phys[1].power_up)
        sim.call_in(airtime * 0.6, phys[1].power_down)
        sim.run()
        assert received[1] == []
        assert medium.stats.disabled_discards == 1

    def test_power_cycle_within_one_airtime_keeps_one_copy(self):
        # down -> up inside one airtime: the radio comes back holding its one
        # (now undecodable) copy, which ends with no delivery and no discard.
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, -1))
        copies = []
        sim.call_in(airtime * 0.3, phys[1].power_down)
        sim.call_in(airtime * 0.6, phys[1].power_up)
        sim.call_in(airtime * 0.8, lambda: copies.append(medium.receptions_for(1)))
        sim.run()
        assert copies == [[(0, airtime, True)]]
        assert received[1] == []
        stats = medium.stats
        assert (stats.deliveries, stats.disabled_discards, stats.collisions) == (0, 0, 0)

    def test_power_transitions_are_idempotent(self):
        sim, medium, phys, _ = _make_network([(0, 0), (50, 0)])
        phys[1].power_down()
        phys[1].power_down()
        phys[1].power_up()
        phys[1].power_up()
        assert phys[1].enabled
        phys[0].transmit(_frame(0, 1))
        sim.run()
        assert medium.stats.deliveries == 1


class TestSnapshotGeometry:
    """All geometry is frozen at transmission start."""

    def _network_with_mover(self, waypoints, range_m=100.0):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
        sender = Phy(_StubNode(0, 0, 0), medium)
        mover = Phy(_TraceNode(1, waypoints), medium)
        received = []
        mover.set_receive_callback(lambda frame, src: received.append((frame, src)))
        return sim, medium, sender, mover, received

    def test_node_leaving_range_mid_airtime_still_receives(self):
        # In range at transmission start, far out of range by the end.
        sim, medium, sender, mover, received = self._network_with_mover(
            [(0.0, 90.0, 0.0), (3e-4, 250.0, 0.0)]
        )
        airtime = sender.transmit(_frame(0, 1))
        probes = []
        sim.call_in(airtime * 0.75, lambda: probes.append(mover.carrier_busy()))
        sim.run()
        assert probes == [True]  # still senses the frame it is receiving
        assert len(received) == 1
        assert medium.stats.deliveries == 1

    def test_node_entering_range_mid_airtime_hears_nothing(self):
        sim, medium, sender, mover, received = self._network_with_mover(
            [(0.0, 250.0, 0.0), (3e-4, 50.0, 0.0)]
        )
        airtime = sender.transmit(_frame(0, 1))
        probes = []
        sim.call_in(airtime * 0.75, lambda: probes.append(mover.carrier_busy()))
        sim.run()
        assert probes == [False]  # was outside the start-time interference set
        assert received == []
        assert medium.stats.deliveries == 0
        assert medium.stats.out_of_range_discards == 0

    def test_carrier_sense_agrees_with_reception_set(self):
        # The satellite invariant: carrier_busy() == membership in the frozen
        # interference set, no matter where the node has moved since.
        for waypoints in (
            [(0.0, 90.0, 0.0), (3e-4, 250.0, 0.0)],  # leaves mid-airtime
            [(0.0, 250.0, 0.0), (3e-4, 50.0, 0.0)],  # enters mid-airtime
        ):
            sim, medium, sender, mover, _ = self._network_with_mover(waypoints)
            airtime = sender.transmit(_frame(0, 1))
            checks = []

            def check():
                expected = any(
                    end_time > sim.now
                    for _, end_time, _ in medium.receptions_for(mover.node_id)
                )
                checks.append(mover.carrier_busy() == expected)

            for fraction in (0.25, 0.5, 0.9):
                sim.call_in(airtime * fraction, check)
            sim.run()
            assert checks == [True, True, True]


class TestLateRegistration:
    def test_register_mid_transmission_senses_busy_but_cannot_decode(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        late = {}

        def join():
            phy = Phy(_StubNode(2, 30, 0), medium)
            phy.set_receive_callback(lambda f, s: late.setdefault("rx", []).append(f))
            late["phy"] = phy
            late["busy"] = phy.carrier_busy()

        sim.call_in(airtime / 2, join)
        sim.run()
        assert late["busy"]  # joined the in-flight interference set
        assert "rx" not in late  # but missed the head of the frame
        assert medium.stats.deliveries == 1  # node 1 still got its copy
        assert medium.receptions_for(2) == []  # cleaned up at the end

    def test_register_out_of_range_mid_transmission_stays_idle(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))
        late = {}

        def join():
            phy = Phy(_StubNode(2, 500, 0), medium)
            late["busy"] = phy.carrier_busy()

        sim.call_in(airtime / 2, join)
        sim.run()
        assert late["busy"] is False

    def test_late_joiner_transmission_collides_with_in_flight_frame(self):
        sim, medium, phys, received = _make_network([(0, 0), (50, 0)])
        airtime = phys[0].transmit(_frame(0, 1))

        def join_and_transmit():
            phy = Phy(_StubNode(2, 30, 0), medium)
            phy.transmit(_frame(2, -1))

        sim.call_in(airtime / 2, join_and_transmit)
        sim.run()
        # Node 1's copy of frame 0 was corrupted by the overlapping energy.
        assert received[1] == []
        assert medium.stats.collisions >= 1
        assert medium.stats.deliveries == 0


class TestRadioConfigValidation:
    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(transmission_range_m=-5)
