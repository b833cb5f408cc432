"""Property-based tests for the lost table's loss-tracking invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lost_table import LostTable

_arrivals = st.lists(st.integers(min_value=1, max_value=60), min_size=0, max_size=80)


class TestLostTableInvariants:
    @given(_arrivals)
    @settings(max_examples=100, deadline=None)
    def test_never_both_received_and_lost(self, arrivals):
        table = LostTable(capacity=1000)
        for seq in arrivals:
            table.observe(1, seq)
        for seq in range(1, 61):
            assert not (table.has_received(1, seq) and table.is_lost(1, seq))

    @given(_arrivals)
    @settings(max_examples=100, deadline=None)
    def test_every_received_seq_is_marked_received(self, arrivals):
        table = LostTable(capacity=1000)
        for seq in arrivals:
            table.observe(1, seq)
        for seq in set(arrivals):
            assert table.has_received(1, seq)
            assert not table.is_lost(1, seq)

    @given(_arrivals)
    @settings(max_examples=100, deadline=None)
    def test_unreceived_seqs_below_expected_are_lost(self, arrivals):
        table = LostTable(capacity=1000)
        for seq in arrivals:
            table.observe(1, seq)
        received = set(arrivals)
        expected = table.expected_seq(1)
        for seq in range(1, expected):
            if seq not in received:
                assert table.is_lost(1, seq)

    @given(_arrivals)
    @settings(max_examples=100, deadline=None)
    def test_expected_seq_is_one_past_maximum_received(self, arrivals):
        table = LostTable(capacity=1000)
        for seq in arrivals:
            table.observe(1, seq)
        if arrivals:
            assert table.expected_seq(1) == max(arrivals) + 1
        else:
            assert table.expected_seq(1) == 1

    @given(_arrivals, st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_capacity_is_never_exceeded(self, arrivals, capacity):
        table = LostTable(capacity=capacity)
        for seq in arrivals:
            table.observe(1, seq)
        assert len(table) <= capacity

    @given(_arrivals, st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_lost_buffer_is_subset_of_all_losses(self, arrivals, limit):
        table = LostTable(capacity=1000)
        for seq in arrivals:
            table.observe(1, seq)
        buffer = table.most_recent_lost(limit)
        assert len(buffer) <= limit
        assert set(buffer).issubset(set(table.all_lost()))

    @given(_arrivals, st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=90))
    @settings(max_examples=200, deadline=None)
    def test_lost_buffer_is_the_reversed_tail_of_all_losses(self, arrivals, capacity, limit):
        table = LostTable(capacity=capacity)
        for seq in arrivals:
            table.observe(1, seq)
        # The expression ``most_recent_lost`` used to be: copy, slice, reverse.
        tail = table.all_lost()[-limit:] if limit else []
        assert table.most_recent_lost(limit) == tail[::-1]

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                              st.integers(min_value=1, max_value=40)),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_sources_are_independent(self, arrivals):
        table = LostTable(capacity=10_000)
        per_source = {}
        for source, seq in arrivals:
            table.observe(source, seq)
            per_source.setdefault(source, set()).add(seq)
        for source, seqs in per_source.items():
            assert table.expected_seq(source) == max(seqs) + 1
