"""Unit tests for delivery accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collectors import DeliveryCollector


class TestDeliveryCollector:
    def test_counts_distinct_packets_per_member(self):
        collector = DeliveryCollector()
        collector.open_interval(1, 0.0)
        collector.note_sent((0, 1), at=1.0)
        collector.note_sent((0, 2), at=2.0)
        collector.note_delivered(1, (0, 1))
        collector.note_delivered(1, (0, 2))
        assert collector.summary().member_counts == {1: 2}
        assert collector.packets_sent == 2

    def test_duplicate_deliveries_counted_once(self):
        collector = DeliveryCollector()
        collector.open_interval(1, 0.0)
        collector.note_sent((0, 1), at=1.0)
        collector.note_delivered(1, (0, 1))
        collector.note_delivered(1, (0, 1), via_gossip=True)
        assert collector.summary().member_counts == {1: 1}

    def test_duplicate_sends_counted_once(self):
        collector = DeliveryCollector()
        collector.note_sent((0, 1), at=1.0)
        collector.note_sent((0, 1), at=1.0)
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
        collector.note_sent((0, 1), at=1.0)
        assert collector.summary().member_counts == {4: 0}


class TestSubscriptionIntervals:
    def _collector(self, send_times):
        collector = DeliveryCollector()
        for seq, at in enumerate(send_times, start=1):
            collector.note_sent((9, seq), at=at)
        return collector

    def test_interval_is_closed_at_the_start_and_open_at_the_end(self):
        collector = self._collector([5.0, 10.0, 29.9, 30.0])
        collector.open_interval(1, 10.0)
        collector.close_interval(1, 30.0)
        assert collector.expected_for(1) == {(9, 2), (9, 3)}

    def test_open_interval_extends_to_any_later_time(self):
        collector = self._collector([5.0, 10_000.0])
        collector.open_interval(1, 10.0)
        assert collector.expected_for(1) == {(9, 2)}


class TestSummary:
    def test_summary_statistics(self):
        collector = DeliveryCollector()
        for seq in range(1, 11):
            collector.note_sent((0, seq), at=float(seq))
        for member, count in ((1, 10), (2, 6), (3, 2)):
            collector.open_interval(member, 0.0)
            for seq in range(1, count + 1):
                collector.note_delivered(member, (0, seq))
        summary = collector.summary()
        assert summary.packets_sent == 10
        assert summary.mean == pytest.approx(6.0)
        assert summary.minimum == 2
        assert summary.maximum == 10
        assert summary.delivery_ratio == pytest.approx(0.6)
        assert summary.ratio_members == 3
        assert summary.std == pytest.approx(3.265986, rel=1e-4)
        assert summary.member_counts == {1: 10, 2: 6, 3: 2}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=9), st.booleans())
    def test_ratio_form_follows_the_denominators(self, counts, late_joiner):
        # Every member expecting every packet keeps the paper's mean / sent;
        # a member that joined late switches to the per-member average.  The
        # two agree in exact arithmetic but not always in the last bit.
        collector = DeliveryCollector()
        for seq in range(1, 8):
            collector.note_sent((0, seq), at=float(seq))
        for member, count in enumerate(counts):
            collector.open_interval(member, 3.5 if late_joiner and member == 0 else 0.0)
            for seq in range(8 - count, 8):
                collector.note_delivered(member, (0, seq))
        summary = collector.summary()
        if late_joiner:
            values = list(summary.member_counts.values())
            ratios = [values[0] / 4] + [count / 7 for count in values[1:]]
            assert summary.delivery_ratio == sum(ratios) / len(ratios)
        else:
            assert summary.delivery_ratio == summary.mean / 7

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
        collector.note_sent((0, 1), at=1.0)
        collector.open_interval(1, 0.0)
        collector.note_delivered(1, (0, 1))
        text = str(collector.summary())
        assert "sent=1" in text
        assert "mean=1.0" in text


#: Collector inputs at non-decreasing times: ``(op, member, source, seq,
#: via_gossip, time step)``; ids repeat, so duplicates are common.
_inputs = st.lists(
    st.tuples(
        st.sampled_from(["sent", "delivered", "delivered", "open", "close"]),
        st.integers(0, 3), st.integers(0, 2), st.integers(0, 20),
        st.booleans(), st.integers(0, 3),
    ),
    max_size=150,
)


class TestMarksAreTheSetOfIds:
    """Per-source marks give what the former set of ids per member gave."""

    @settings(max_examples=300, deadline=None)
    @given(_inputs, st.booleans())
    def test_counts_and_summary(self, inputs, with_intervals):
        collector, received, via = DeliveryCollector(), {}, {}
        now = 0.0
        for op, member, source, seq, via_gossip, step in inputs:
            now += step
            if op == "sent":
                collector.note_sent((source, seq), at=now)
            elif op == "delivered":
                collector.note_delivered(member, (source, seq), via_gossip=via_gossip)
                ids = received.setdefault(member, set())
                if (source, seq) not in ids:
                    ids.add((source, seq))
                    via[member, via_gossip] = via.get((member, via_gossip), 0) + 1
            elif with_intervals:
                (collector.open_interval if op == "open" else collector.close_interval)(member, now)
        expected = {}
        for member in collector.members:
            ids = received.get(member, set())
            record = collector.member_record(member)
            assert record.count == len(ids)
            assert (record.via_routing, record.via_gossip) == (
                via.get((member, False), 0), via.get((member, True), 0))
            assert all(record.has(message_id) for message_id in ids)
            expected[member] = collector.expected_for(member)
        counts = {member: len(received.get(member, set()) & expected[member])
                  for member in collector.members}
        summary = collector.summary()
        assert summary.member_counts == counts
        ratios = [counts[m] / len(expected[m]) for m in counts if expected[m]]
        assert summary.ratio_members == len(ratios)
        assert summary.delivery_ratio == pytest.approx(
            sum(ratios) / len(ratios) if ratios else 0.0)
