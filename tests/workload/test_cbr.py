"""Unit tests for the CBR source and the measuring sink."""

import pytest

from repro.metrics.collectors import DeliveryCollector
from repro.multicast.messages import MulticastData
from repro.net.addressing import make_group_address
from repro.workload.cbr import CbrSource, MulticastSink
from tests.conftest import GROUP, build_network, line_topology


class _RecordingMulticast:
    """Counts send_data calls without any network underneath."""

    def __init__(self, node_id=0):
        self.node_id = node_id
        self.sent = []
        self.listeners = []

    def send_data(self, group, size_bytes):
        seq = len(self.sent) + 1
        data = MulticastData(
            origin=self.node_id, destination=group, size_bytes=size_bytes,
            group=group, source=self.node_id, seq=seq,
        )
        self.sent.append(data)
        return data

    def add_delivery_listener(self, listener):
        self.listeners.append(listener)

    def deliver(self, data):
        for listener in self.listeners:
            listener(data)


class TestCbrSource:
    def test_sends_at_configured_rate(self):
        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        source = CbrSource(
            network.nodes[0], multicast, GROUP,
            start_s=2.0, stop_s=4.0, interval_s=0.5, payload_bytes=64,
        )
        source.start()
        network.sim.run(until=10.0)
        assert source.packets_sent == 5   # t = 2.0, 2.5, 3.0, 3.5, 4.0

    def test_collector_notified_of_every_send(self):
        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        collector = DeliveryCollector()
        source = CbrSource(
            network.nodes[0], multicast, GROUP,
            start_s=0.0, stop_s=1.0, interval_s=0.5, collector=collector,
        )
        source.start()
        network.sim.run(until=5.0)
        assert collector.packets_sent == 3

    def test_invalid_configuration_rejected(self):
        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        with pytest.raises(ValueError):
            CbrSource(network.nodes[0], multicast, GROUP, start_s=5.0, stop_s=1.0)
        with pytest.raises(ValueError):
            CbrSource(network.nodes[0], multicast, GROUP, interval_s=0.0)


class TestMulticastSink:
    def test_routing_deliveries_recorded(self):
        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        collector = DeliveryCollector()
        MulticastSink(network.nodes[0], multicast, collector, group=GROUP)
        collector.open_interval(0, 0.0)
        data = MulticastData(origin=7, destination=GROUP, group=GROUP, source=7, seq=1)
        collector.note_sent(data.mid, at=1.0)
        multicast.deliver(data)
        assert collector.summary().member_counts == {0: 1}
        assert collector.member_record(0).via_routing == 1

    def test_other_groups_deliveries_ignored(self):
        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        collector = DeliveryCollector()
        sink = MulticastSink(network.nodes[0], multicast, collector, group=GROUP)
        other = make_group_address(1)
        multicast.deliver(MulticastData(origin=7, destination=other, group=other, source=7, seq=1))
        assert sink.packets_received == 0
        assert collector.member_record(0).count == 0

    def test_gossip_recoveries_recorded_separately(self):
        class _FakeGossip:
            def __init__(self):
                self.listeners = []

            def add_recovery_listener(self, listener):
                self.listeners.append(listener)

            def recover(self, data):
                for listener in self.listeners:
                    listener(data)

        network = build_network(line_topology(1, 10.0))
        multicast = _RecordingMulticast()
        gossip = _FakeGossip()
        collector = DeliveryCollector()
        sink = MulticastSink(network.nodes[0], multicast, collector, group=GROUP, gossip=gossip)
        gossip.recover(MulticastData(origin=7, destination=GROUP, group=GROUP, source=7, seq=2))
        assert collector.member_record(0).via_gossip == 1
        assert sink.packets_recovered == 1

    def test_member_registered_even_before_reception(self):
        network = build_network(line_topology(1, 10.0))
        collector = DeliveryCollector()
        MulticastSink(network.nodes[0], _RecordingMulticast(), collector, group=GROUP)
        assert collector.summary().member_counts == {0: 0}
