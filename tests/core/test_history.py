"""Unit tests for the history table (the gossip responder's message store)."""

import pytest

from repro.core.history import HistoryTable
from repro.multicast.messages import MulticastData


def _data(source, seq, size=84):
    return MulticastData(
        origin=source, destination=1_000_000, size_bytes=size, group=1_000_000,
        source=source, seq=seq,
    )


class TestStorage:
    def test_add_and_get(self):
        history = HistoryTable(capacity=10)
        message = _data(1, 5)
        assert history.add(message)
        assert (1, 5) in history
        assert history.get((1, 5)) is message

    def test_duplicate_add_rejected(self):
        history = HistoryTable(capacity=10)
        history.add(_data(1, 5))
        assert not history.add(_data(1, 5))
        assert len(history) == 1

    def test_fifo_eviction_when_full(self):
        history = HistoryTable(capacity=3)
        for seq in range(1, 6):
            history.add(_data(1, seq))
        assert len(history) == 3
        assert history.evictions == 2
        assert (1, 1) not in history
        assert (1, 2) not in history
        assert (1, 5) in history

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            HistoryTable(capacity=0)

    def test_message_ids_oldest_first(self):
        history = HistoryTable(capacity=10)
        history.add(_data(1, 2))
        history.add(_data(2, 1))
        assert history.message_ids() == [(1, 2), (2, 1)]


class TestLookup:
    def test_messages_at_or_after(self):
        history = HistoryTable(capacity=10)
        for seq in (1, 2, 5, 7):
            history.add(_data(1, seq))
        history.add(_data(2, 9))
        found = history.messages_at_or_after(source=1, seq=3)
        assert [m.seq for m in found] == [5, 7]

    def test_messages_at_or_after_in_sequence_order(self):
        history = HistoryTable(capacity=10)
        for seq in (9, 3, 6):
            history.add(_data(1, seq))
        found = history.messages_at_or_after(source=1, seq=1)
        assert [m.seq for m in found] == [3, 6, 9]

    def test_iteration_yields_messages(self):
        history = HistoryTable(capacity=10)
        history.add(_data(1, 1))
        history.add(_data(1, 2))
        assert sorted(m.seq for m in history) == [1, 2]
