"""Unit tests for delivery accounting."""

import pytest

from repro.metrics.collectors import DeliveryCollector


class TestDeliveryCollector:
    def test_counts_distinct_packets_per_member(self):
        collector = DeliveryCollector()
        collector.register_member(1)
        collector.note_sent((0, 1))
        collector.note_sent((0, 2))
        collector.note_delivered(1, (0, 1))
        collector.note_delivered(1, (0, 2))
        assert collector.received_by(1) == 2
        assert collector.packets_sent == 2

    def test_duplicate_deliveries_counted_once(self):
        collector = DeliveryCollector()
        collector.note_delivered(1, (0, 1))
        collector.note_delivered(1, (0, 1), via_gossip=True)
        assert collector.received_by(1) == 1

    def test_duplicate_sends_counted_once(self):
        collector = DeliveryCollector()
        collector.note_sent((0, 1))
        collector.note_sent((0, 1))
        assert collector.packets_sent == 1

    def test_gossip_and_routing_paths_tracked_separately(self):
        collector = DeliveryCollector()
        collector.note_delivered(1, (0, 1))
        collector.note_delivered(1, (0, 2), via_gossip=True)
        record = collector.member_record(1)
        assert record.via_routing == 1
        assert record.via_gossip == 1
        assert record.count == 2

    def test_registered_member_with_no_receptions_appears_with_zero(self):
        collector = DeliveryCollector()
        collector.register_member(4)
        collector.note_sent((0, 1))
        assert collector.counts() == {4: 0}

    def test_unknown_member_received_by_is_zero(self):
        assert DeliveryCollector().received_by(9) == 0


class TestSummary:
    def test_summary_statistics(self):
        collector = DeliveryCollector()
        for seq in range(1, 11):
            collector.note_sent((0, seq))
        for member, count in ((1, 10), (2, 6), (3, 2)):
            collector.register_member(member)
            for seq in range(1, count + 1):
                collector.note_delivered(member, (0, seq))
        summary = collector.summary()
        assert summary.packets_sent == 10
        assert summary.mean == pytest.approx(6.0)
        assert summary.minimum == 2
        assert summary.maximum == 10
        assert summary.delivery_ratio == pytest.approx(0.6)
        assert summary.std == pytest.approx(3.265986, rel=1e-4)
        assert summary.member_counts == {1: 10, 2: 6, 3: 2}

    def test_empty_summary(self):
        summary = DeliveryCollector().summary()
        assert summary.mean == 0.0
        assert summary.delivery_ratio == 0.0
        assert summary.member_counts == {}

    def test_summary_with_no_packets_sent(self):
        collector = DeliveryCollector()
        collector.register_member(1)
        summary = collector.summary()
        assert summary.delivery_ratio == 0.0

    def test_summary_str_mentions_key_figures(self):
        collector = DeliveryCollector()
        collector.note_sent((0, 1))
        collector.register_member(1)
        collector.note_delivered(1, (0, 1))
        text = str(collector.summary())
        assert "sent=1" in text
        assert "mean=1.0" in text
