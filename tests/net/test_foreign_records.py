"""Direct tests for the medium's cross-shard mailbox machinery.

The parallel shard drivers exchange exported channel records and replay
them through :meth:`Medium.apply_foreign_records`; these tests pin each
replay path in isolation -- export shape, in-flight attach (with the full
collision machinery), late delivery, sender-crash truncation of both the
already-ended and the still-in-flight kind -- using two independent media
standing in for two shard workers.
"""

import pytest

from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.packet import BROADCAST_ADDRESS, Frame, Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator


class _StaticNode:
    def __init__(self, node_id, x, y):
        self.node_id = node_id
        self._position = (x, y)

    def position(self, at_time):
        return self._position


def _make_medium(positions, range_m=100.0):
    sim = Simulator()
    medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
    received = {}
    phys = {}
    for node_id, (x, y) in positions.items():
        phy = Phy(_StaticNode(node_id, x, y), medium)
        received[node_id] = []
        phy.set_receive_callback(
            lambda frame, sender, nid=node_id: received[nid].append(
                (sim.now, sender, frame.packet.uid)
            )
        )
        phys[node_id] = phy
    return sim, medium, phys, received


def _frame(src, dst=BROADCAST_ADDRESS, size=100):
    return Frame(src=src, dst=dst,
                 packet=Packet(origin=src, destination=dst, size_bytes=size))


class TestExportMailbox:
    def test_drain_without_enable_is_inert(self):
        sim, medium, phys, _ = _make_medium({0: (0, 0), 1: (50, 0)})
        phys[0].transmit(_frame(0))
        sim.run()
        # Export never armed: nothing recorded, nothing armed by draining.
        assert medium.drain_export() == []
        assert medium.drain_export() == []

    def test_transmissions_and_crashes_are_exported(self):
        sim, medium, phys, _ = _make_medium({0: (0, 0), 1: (50, 0)})
        medium.enable_export()
        airtime = phys[0].transmit(_frame(0))
        sim.run()
        phys[1].power_down()
        records = medium.drain_export()
        assert [record[0] for record in records] == ["tx", "down"]
        tag, start, sender_id, end_time, sx, sy, frame = records[0]
        assert (start, sender_id) == (0.0, 0)
        assert end_time == pytest.approx(airtime)
        assert (sx, sy) == (0.0, 0.0)
        assert frame.src == 0
        assert records[1][1:3] == (sim.now, 1)
        assert medium.drain_export() == []  # drained


class TestApplyForeignRecords:
    def test_in_flight_record_attaches_and_delivers_at_end_time(self):
        # Worker A transmits; worker B (holding the receiver) replays the
        # record while the frame is still in the air.
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0))
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        medium_b.apply_foreign_records(records)
        assert medium_b.foreign_stats["attached"] == 1
        end_time = records[0][3]
        assert phys_b[1].rx_busy_until == pytest.approx(end_time)
        assert phys_b[1].carrier_busy()
        sim_b.run()
        assert received_b[1] == [(end_time, 0, records[0][6].packet.uid)]
        assert medium_b.stats.deliveries == 1
        # The originating shard owns the transmission count.
        assert medium_b.stats.transmissions == 0

    def test_attached_record_collides_with_local_traffic(self):
        # A local transmission already in flight at the receiver: the
        # foreign attach must corrupt both copies, like any local overlap.
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0))
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium(
            {1: (50, 0), 2: (60, 0)}
        )
        phys_b[2].transmit(_frame(2))
        medium_b.apply_foreign_records(records)
        sim_b.run()
        assert received_b[1] == []
        assert medium_b.stats.collisions >= 2
        assert medium_b.foreign_stats["attached"] == 1

    def test_already_ended_record_is_delivered_late(self):
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0))
        sim_a.run()
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        sim_b.run(until=1.0)  # the boundary: the flight is long over
        medium_b.apply_foreign_records(records)
        assert medium_b.foreign_stats["late_deliveries"] == 1
        assert medium_b.foreign_stats["attached"] == 0
        # Delivered immediately, at the boundary, without interference.
        assert received_b[1] == [(1.0, 0, records[0][6].packet.uid)]
        assert medium_b.stats.deliveries == 1

    def test_late_unicast_respects_the_filter(self):
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0), 9: (5, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0, dst=9))
        sim_a.run()
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        phys_b[1].unicast_filter = True
        sim_b.run(until=1.0)
        medium_b.apply_foreign_records(records)
        # Counted as an intact copy, never dispatched -- the local
        # unicast-filter contract.
        assert medium_b.stats.deliveries == 1
        assert received_b[1] == []

    def test_sender_crash_mid_flight_truncates_ended_record(self):
        # The sender crashed inside the frame's airtime; by the time the
        # boundary replays it the flight is over, so the record is dropped
        # instead of delivered late.
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        airtime = phys_a[0].transmit(_frame(0))
        sim_a.call_at(airtime / 2, phys_a[0].power_down, ())
        sim_a.run()
        records = medium_a.drain_export()
        assert [record[0] for record in records] == ["tx", "down"]

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        sim_b.run(until=1.0)
        medium_b.apply_foreign_records(records)
        assert medium_b.foreign_stats["truncated"] == 1
        assert medium_b.foreign_stats["sender_downs"] == 1
        assert medium_b.foreign_stats["late_deliveries"] == 0
        assert received_b[1] == []

    def test_crash_after_flight_does_not_truncate(self):
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        airtime = phys_a[0].transmit(_frame(0))
        sim_a.run()
        sim_a.run(until=airtime + 0.01)
        phys_a[0].power_down()
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        sim_b.run(until=1.0)
        medium_b.apply_foreign_records(records)
        assert medium_b.foreign_stats["truncated"] == 0
        assert medium_b.foreign_stats["late_deliveries"] == 1
        assert len(received_b[1]) == 1

    def test_down_record_corrupts_attached_in_flight_copies(self):
        # The crash lands in the same inbox as the transmission it kills,
        # sorted after it: the attach happens, then the down record
        # corrupts the still-pending copies, so nothing is delivered.
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0))
        tx_record = medium_a.drain_export()[0]
        down_record = ("down", tx_record[3] / 2, 0)

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (50, 0)})
        medium_b.apply_foreign_records([tx_record, down_record])
        assert medium_b.foreign_stats["attached"] == 1
        assert medium_b.foreign_stats["sender_downs"] == 1
        # Still on the air, so still energy at the radio; but no lock.
        assert phys_b[1].carrier_busy()
        assert phys_b[1].rx_current is None and medium_b._active[0].locked == 0
        sim_b.run()
        assert received_b[1] == []
        assert medium_b.stats.deliveries == 0

    def test_out_of_range_foreign_records_touch_nothing(self):
        sim_a, medium_a, phys_a, _ = _make_medium({0: (0, 0)})
        medium_a.enable_export()
        phys_a[0].transmit(_frame(0))
        records = medium_a.drain_export()

        sim_b, medium_b, phys_b, received_b = _make_medium({1: (500, 0)})
        medium_b.apply_foreign_records(records)
        sim_b.run()
        assert received_b[1] == []
        assert medium_b.foreign_stats["attached"] == 1  # replayed, no receivers
        assert medium_b.stats.deliveries == 0
