"""Unit tests for the member cache used by cached gossip."""

import random

import pytest

from repro.core.member_cache import MemberCache


class TestBasics:
    def test_note_member_adds_entry(self):
        cache = MemberCache(capacity=5)
        assert cache.note_member(3, numhops=2, now=1.0)
        assert 3 in cache
        assert cache.get(3).numhops == 2

    def test_note_existing_member_refreshes_hops(self):
        cache = MemberCache(capacity=5)
        cache.note_member(3, numhops=2, now=1.0)
        cache.note_member(3, numhops=5, now=2.0)
        assert len(cache) == 1
        assert cache.get(3).numhops == 5

    def test_record_gossip_updates_timestamp(self):
        cache = MemberCache(capacity=5)
        cache.note_member(3, numhops=2, now=1.0)
        cache.record_gossip(3, now=9.0)
        assert cache.get(3).last_gossip == 9.0

    def test_record_gossip_unknown_member_is_noop(self):
        cache = MemberCache(capacity=5)
        cache.record_gossip(3, now=9.0)
        assert 3 not in cache

    def test_members_sorted(self):
        cache = MemberCache(capacity=5)
        cache.note_member(9, 1, 0.0)
        cache.note_member(2, 1, 0.0)
        assert cache.members() == [2, 9]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemberCache(capacity=0)


class TestEviction:
    def test_farther_member_evicted_first(self):
        # The paper's rule: replace a member with greater numhops.
        cache = MemberCache(capacity=2)
        cache.note_member(1, numhops=5, now=0.0)
        cache.note_member(2, numhops=2, now=0.0)
        cache.note_member(3, numhops=3, now=1.0)
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_most_recently_gossiped_evicted_when_no_farther_member(self):
        cache = MemberCache(capacity=2)
        cache.note_member(1, numhops=2, now=0.0)
        cache.note_member(2, numhops=2, now=0.0)
        cache.record_gossip(1, now=5.0)   # member 1 gossiped with most recently
        cache.note_member(3, numhops=4, now=6.0)
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_cache_never_exceeds_capacity(self):
        cache = MemberCache(capacity=3)
        for node in range(20):
            cache.note_member(node, numhops=node % 7, now=float(node))
        assert len(cache) <= 3


class TestRandomSelection:
    def test_random_member_empty_cache_returns_none(self):
        assert MemberCache(capacity=5).random_member(random.Random(1)) is None

    def test_random_member_covers_all_entries_eventually(self):
        cache = MemberCache(capacity=5)
        for node in (1, 2, 3):
            cache.note_member(node, 1, 0.0)
        rng = random.Random(7)
        picks = {cache.random_member(rng) for _ in range(100)}
        assert picks == {1, 2, 3}
