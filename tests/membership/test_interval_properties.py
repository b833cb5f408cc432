"""Property: a member's delivery count only reflects its subscribed intervals.

Hypothesis drives random send schedules, random subscription intervals and a
random subset of deliveries through :class:`DeliveryCollector`, then checks
the interval-aware accounting against an independent brute-force model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collectors import DeliveryCollector

#: (send_times, interval boundary times, which sent packets get delivered)
_sends = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1,
    max_size=30,
)
_boundaries = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0,
    max_size=8, unique=True,
)
_delivery_mask = st.lists(st.booleans(), min_size=30, max_size=30)


def _build(send_times, boundaries, mask):
    """One member, packets from source 1, alternating join/leave boundaries."""
    collector = DeliveryCollector()
    member = 7
    boundaries = sorted(boundaries)
    # Alternate join/leave: even indexes open an interval, odd ones close it.
    for index, at in enumerate(boundaries):
        if index % 2 == 0:
            collector.open_interval(member, at)
        else:
            collector.close_interval(member, at)
    for seq, at in enumerate(send_times, start=1):
        collector.note_sent((1, seq), at=at)
    delivered = []
    for seq, at in enumerate(send_times, start=1):
        if mask[(seq - 1) % len(mask)]:
            collector.note_delivered(member, (1, seq))
            delivered.append(seq)
    return collector, member, boundaries, delivered


def _count(collector, member):
    """The member's count as the delivery summary reports it."""
    return collector.summary().member_counts.get(member, 0)


def _subscribed(boundaries, at):
    """Brute-force subscription check over alternating boundaries."""
    subscribed = False
    for boundary in boundaries:
        if boundary > at:
            break
        subscribed = not subscribed
    return subscribed


@settings(max_examples=200, deadline=None)
@given(_sends, _boundaries, _delivery_mask)
def test_count_only_reflects_subscribed_intervals(send_times, boundaries, mask):
    collector, member, boundaries, delivered = _build(send_times, boundaries, mask)
    # With no boundaries the member never subscribed: nothing is expected.
    expected_count = sum(
        1
        for seq in set(delivered)
        if _subscribed(boundaries, send_times[seq - 1])
    )
    assert _count(collector, member) == expected_count
    # The denominator is exactly the packets sent while subscribed.
    expected_denominator = sum(
        1 for at in send_times if _subscribed(boundaries, at)
    )
    # note_sent deduplicates identical (source, seq); seqs are unique here.
    assert len(collector.expected_for(member)) == expected_denominator


@settings(max_examples=100, deadline=None)
@given(_sends, _boundaries, _delivery_mask)
def test_summary_ratio_bounded_and_consistent(send_times, boundaries, mask):
    collector, member, boundaries, delivered = _build(send_times, boundaries, mask)
    summary = collector.summary()
    assert 0.0 <= summary.delivery_ratio <= 1.0
    if member in summary.member_counts:
        assert summary.member_counts[member] <= len(collector.expected_for(member))


def test_member_never_subscribed_is_charged_for_nothing():
    collector = DeliveryCollector()
    collector.open_interval(1, 50.0)   # member 1 joined mid-run...
    collector.register_member(2)       # ...member 2 never subscribed
    for seq, at in enumerate([10.0, 60.0], start=1):
        collector.note_sent((9, seq), at=at)
        collector.note_delivered(1, (9, seq))
        collector.note_delivered(2, (9, seq))
    # Member 1 only gets credit (and blame) for the post-join packet.
    assert _count(collector, 1) == 1
    assert len(collector.expected_for(1)) == 1
    # Member 2 answers for nothing, and the ratio leaves it out.
    assert _count(collector, 2) == 0
    assert collector.expected_for(2) == set()
    assert collector.summary().ratio_members == 1
