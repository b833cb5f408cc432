"""Tests for node failure injection."""

import random

import pytest

from repro.mobility.base import RectangularArea
from repro.workload.failures import (
    FailureEvent,
    FailureSchedule,
    RandomFailureInjector,
    RegionalFailureInjector,
)
from tests.conftest import GROUP, build_network, line_topology


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(node_id=1, start_s=10.0, end_s=5.0)
        with pytest.raises(ValueError):
            FailureEvent(node_id=1, start_s=-1.0, end_s=5.0)

    def test_duration(self):
        assert FailureEvent(node_id=1, start_s=2.0, end_s=7.5).duration_s == 5.5


class TestNodeFailure:
    def test_failed_node_does_not_receive(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        received = []
        from repro.net.packet import Packet

        network.nodes[1].register_handler(Packet, lambda p, s: received.append(p))
        network.nodes[1].fail()
        network.nodes[0].send_frame(Packet(origin=0, destination=-1), -1)
        network.run(1.0)
        assert received == []
        assert not network.nodes[1].alive

    def test_failed_node_does_not_transmit(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        network.nodes[0].fail()
        network.start()
        network.run(3.0)
        # Node 1 never hears node 0's hellos.
        assert network.aodv[1].neighbors() == []

    def test_recovery_restores_communication(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        network.nodes[0].fail()
        network.start()
        network.run(3.0)
        network.nodes[0].recover()
        network.run(3.0)
        assert network.aodv[1].neighbors() == [0]
        assert network.nodes[0].alive


class TestFailureSchedule:
    def test_events_applied_at_scheduled_times(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        schedule = FailureSchedule(
            network.sim,
            network.nodes,
            [FailureEvent(node_id=1, start_s=2.0, end_s=5.0)],
        )
        schedule.start()
        network.start()
        network.run(3.0)
        assert not network.nodes[1].alive
        network.run(3.0)
        assert network.nodes[1].alive
        assert schedule.failures_applied == 1
        assert schedule.recoveries_applied == 1

    def test_outages_fire_at_their_exact_instants_in_filing_order(self):
        # Absolute times, not delays from now: an event filed afterwards at
        # the same instant ties with the outage and runs after it.
        network = build_network(line_topology(2, 50.0), range_m=100)
        sim = network.sim
        sim.call_in(0.1, lambda: None)
        sim.run()
        schedule = FailureSchedule(
            sim, network.nodes, [FailureEvent(node_id=1, start_s=30.3, end_s=30.7)]
        )
        schedule.start()
        seen = []
        for time_s in (30.3, 30.7):
            sim.call_at(time_s, lambda: seen.append((sim.now, network.nodes[1].alive)))
        sim.run(until=31.0)
        assert seen == [(30.3, False), (30.7, True)]

    def test_unknown_node_rejected(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        with pytest.raises(ValueError):
            FailureSchedule(network.sim, network.nodes,
                            [FailureEvent(node_id=9, start_s=1.0, end_s=2.0)])

    def test_relay_outage_breaks_and_restores_multicast(self):
        # 0 (source/member) - 1 (relay) - 2 (member); the relay dies while the
        # source keeps sending; gossip recovers the gap after the relay heals.
        network = build_network(line_topology(3, 60.0), range_m=80, with_gossip=True)
        received, recovered = [], []
        network.maodv[2].add_delivery_listener(lambda d: received.append(d.seq))
        network.gossip[2].add_recovery_listener(lambda d: recovered.append(d.seq))
        schedule = FailureSchedule(
            network.sim, network.nodes, [FailureEvent(node_id=1, start_s=16.0, end_s=28.0)]
        )
        schedule.start()
        network.start()
        network.join_all([0, 2], spacing_s=2.0)
        network.run(12.0)

        def send_periodically():
            network.maodv[0].send_data(GROUP, 64)
            if network.sim.now < 34.0:
                network.sim.call_in(2.0, send_periodically)

        network.sim.call_at(13.0, send_periodically)
        network.run(70.0)
        all_seqs = set(received) | set(recovered)
        sent = network.maodv[0].stats.data_originated
        # Everything the source sent is eventually known to member 2.
        assert all_seqs == set(range(1, sent + 1))
        assert recovered, "packets sent during the outage must arrive via gossip"


class TestRandomFailureInjector:
    def test_outages_are_generated_and_bounded(self):
        network = build_network(line_topology(4, 50.0), range_m=100)
        injector = RandomFailureInjector(
            network.sim,
            network.nodes,
            random.Random(3),
            mean_time_to_failure_s=5.0,
            min_outage_s=1.0,
            max_outage_s=2.0,
        )
        injector.start()
        network.start()
        network.run(60.0)
        assert injector.outages, "some outages should have occurred"
        for node_id, start, end in injector.outages:
            assert 1.0 <= end - start <= 2.0
        # All nodes are back up at the end of their last outage window.
        network.run(5.0)

    def test_protected_nodes_never_fail(self):
        network = build_network(line_topology(3, 50.0), range_m=100)
        injector = RandomFailureInjector(
            network.sim,
            network.nodes,
            random.Random(3),
            mean_time_to_failure_s=2.0,
            min_outage_s=0.5,
            max_outage_s=1.0,
            protected=[0],
        )
        injector.start()
        network.start()
        network.run(30.0)
        assert all(node_id != 0 for node_id, _, _ in injector.outages)

    def test_invalid_parameters_rejected(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        with pytest.raises(ValueError):
            RandomFailureInjector(network.sim, network.nodes, random.Random(1),
                                  mean_time_to_failure_s=0.0)
        with pytest.raises(ValueError):
            RandomFailureInjector(network.sim, network.nodes, random.Random(1),
                                  min_outage_s=5.0, max_outage_s=1.0)


class TestRegionalFailureInjector:
    def _injector(self, network, **overrides):
        params = dict(
            area=RectangularArea(200.0, 200.0),
            mean_time_between_outages_s=5.0,
            radius_m=80.0,
            min_outage_s=1.0,
            max_outage_s=2.0,
        )
        params.update(overrides)
        return RegionalFailureInjector(
            network.sim, network.nodes, random.Random(7), **params
        )

    def test_strikes_fail_whole_regions_and_recover_together(self):
        network = build_network(line_topology(5, 40.0), range_m=100)
        injector = self._injector(network)
        injector.start()
        network.start()
        network.run(40.0)
        assert injector.outages, "strikes should have occurred"
        populated = [o for o in injector.outages if o.node_ids]
        assert populated, "at least one strike should hit nodes"
        for outage in populated:
            # Every hit node lies inside the disc at strike time (static
            # topology, so positions are stable).
            for node_id in outage.node_ids:
                x, y = network.nodes[node_id].position(outage.start_s)
                distance_sq = (x - outage.center[0]) ** 2 + (y - outage.center[1]) ** 2
                assert distance_sq <= outage.radius_m ** 2 + 1e-9
            assert 1.0 <= outage.end_s - outage.start_s <= 2.0
        # Everyone is back up once strikes stop and pending windows close.
        injector.stop()
        network.run(5.0)
        assert all(node.alive for node in network.nodes)

    def test_correlated_outage_hits_colocated_nodes_together(self):
        # All nodes sit within one disc: any populated strike takes out the
        # entire (non-protected) population at once.
        network = build_network([(10.0, 10.0), (12.0, 10.0), (14.0, 10.0)], range_m=100)
        injector = self._injector(
            network, area=RectangularArea(20.0, 20.0), radius_m=30.0
        )
        injector.start()
        network.start()
        network.run(30.0)
        populated = [o for o in injector.outages if o.node_ids]
        assert populated
        assert all(len(o.node_ids) == 3 for o in populated)

    def test_protected_nodes_survive_strikes(self):
        network = build_network([(5.0, 5.0), (6.0, 5.0)], range_m=100)
        injector = self._injector(
            network, area=RectangularArea(10.0, 10.0), radius_m=20.0, protected=[0]
        )
        injector.start()
        network.start()
        network.run(30.0)
        assert all(0 not in outage.node_ids for outage in injector.outages)

    def test_overlapping_strikes_leave_original_recovery_schedule(self):
        # A node already down is skipped by later strikes, so its recovery
        # is driven by the first outage only; it must be up again at the end.
        network = build_network([(5.0, 5.0)], range_m=100)
        injector = self._injector(
            network, area=RectangularArea(10.0, 10.0), radius_m=20.0,
            mean_time_between_outages_s=0.5,
        )
        injector.start()
        network.start()
        network.run(60.0)
        injector.stop()
        network.run(5.0)
        assert network.nodes[0].alive
        hits = [o for o in injector.outages if o.node_ids]
        misses_due_to_down = [o for o in injector.outages if not o.node_ids]
        assert hits and misses_due_to_down

    def test_invalid_parameters_rejected(self):
        network = build_network(line_topology(2, 50.0), range_m=100)
        area = RectangularArea(100.0, 100.0)
        with pytest.raises(ValueError):
            RegionalFailureInjector(network.sim, network.nodes, random.Random(1),
                                    area=area, mean_time_between_outages_s=0.0)
        with pytest.raises(ValueError):
            RegionalFailureInjector(network.sim, network.nodes, random.Random(1),
                                    area=area, radius_m=0.0)
        with pytest.raises(ValueError):
            RegionalFailureInjector(network.sim, network.nodes, random.Random(1),
                                    area=area, min_outage_s=3.0, max_outage_s=1.0)
