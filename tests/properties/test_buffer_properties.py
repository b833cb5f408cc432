"""Property-based tests for the history table and member cache bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryTable
from repro.core.member_cache import MemberCache
from repro.multicast.messages import MulticastData


def _data(source, seq):
    return MulticastData(origin=source, destination=0, group=0, source=source, seq=seq)


_message_ids = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=50)),
    max_size=120,
)


class TestHistoryTableInvariants:
    @given(_message_ids, st.integers(min_value=1, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, message_ids, capacity):
        history = HistoryTable(capacity=capacity)
        for source, seq in message_ids:
            history.add(_data(source, seq))
        assert len(history) <= capacity

    @given(_message_ids, st.integers(min_value=1, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_last_added_message_is_always_retained(self, message_ids, capacity):
        history = HistoryTable(capacity=capacity)
        for source, seq in message_ids:
            history.add(_data(source, seq))
        if message_ids:
            assert message_ids[-1] in history
        assert set(history.message_ids()).issubset(set(message_ids))

    @given(_message_ids)
    @settings(max_examples=100, deadline=None)
    def test_every_stored_message_is_retrievable(self, message_ids):
        history = HistoryTable(capacity=1000)
        for source, seq in message_ids:
            history.add(_data(source, seq))
        for message_id in history.message_ids():
            message = history.get(message_id)
            assert message is not None
            assert message.message_id() == message_id

    @given(_message_ids, st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_messages_at_or_after_is_exactly_the_held_suffix(
        self, message_ids, source, seq, capacity
    ):
        history = HistoryTable(capacity=capacity)
        for message_source, message_seq in message_ids:
            history.add(_data(message_source, message_seq))
        found = history.messages_at_or_after(source, seq)
        assert [message.message_id() for message in found] == sorted(
            (s, q) for s, q in history.message_ids() if s == source and q >= seq
        )


_cache_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),   # member id
        st.integers(min_value=1, max_value=15),   # hop count
    ),
    max_size=100,
)


class TestMemberCacheInvariants:
    @given(_cache_events, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded(self, events, capacity):
        cache = MemberCache(capacity=capacity)
        for time, (member, hops) in enumerate(events):
            cache.note_member(member, hops, float(time))
        assert len(cache) <= capacity

    @given(_cache_events, st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_entries_always_reflect_known_members(self, events, capacity):
        cache = MemberCache(capacity=capacity)
        noted = set()
        for time, (member, hops) in enumerate(events):
            cache.note_member(member, hops, float(time))
            noted.add(member)
        assert set(cache.members()).issubset(noted)

    @given(_cache_events)
    @settings(max_examples=100, deadline=None)
    def test_random_member_comes_from_cache(self, events):
        import random

        cache = MemberCache(capacity=10)
        for time, (member, hops) in enumerate(events):
            cache.note_member(member, hops, float(time))
        pick = cache.random_member(random.Random(0))
        if cache.members():
            assert pick in cache.members()
        else:
            assert pick is None
