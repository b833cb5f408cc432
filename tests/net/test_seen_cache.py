"""The flood seen-cache AODV, MAODV and ODMRP share, and the keys it holds.

A :class:`SeenCache` must answer exactly as the unpurged ``key -> expiry``
dict each router used to keep (seen while ``expiry > now``) while holding no
more than the keys marked in the last two lifetimes.  Every flood packet
builds its key once and forwarders pass it on, so all the caches of one
flood share one tuple.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, ScenarioConfig
from repro.multicast.messages import GroupHello, JoinRequest, LeaderHandoff
from repro.multicast.odmrp import JoinQuery
from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.packet import SeenCache
from repro.routing.messages import RouteRequest

#: ``(time step, first_sight?, key)``; times and lifetimes are multiples of
#: 0.25 s, so every sum is exact and the two-lifetime bound is too.
_steps = st.lists(
    st.tuples(st.integers(0, 12), st.booleans(), st.integers(0, 15)), max_size=120
)


class TestSeenCacheIsTheUnpurgedDict:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 20), _steps)
    def test_same_answers_and_two_lifetimes_at_most(self, quarters, steps):
        lifetime = quarters * 0.25
        cache, reference, marked_at, purges = SeenCache(lifetime), {}, {}, []
        now = 0.0
        for step, query, key in steps:
            now += step * 0.25
            purge_at = cache._purge_at
            expiry = reference.get(key)
            unseen = expiry is None or expiry <= now
            if query:
                assert cache.first_sight(key, now) == unseen
            else:
                cache.mark(key, now)
            if not query or unseen:
                reference[key] = now + lifetime
                marked_at[key] = now
            if cache._purge_at != purge_at:
                purges.append(now)
            # Every live key is held, with the reference's expiry.
            assert {k: v for k, v in reference.items() if v > now} == {
                k: v for k, v in cache.items() if v > now}
            assert all(cache[k] == reference[k] for k in cache)
            assert all(marked_at[k] > now - 2 * lifetime for k in cache)
        assert all(b - a >= lifetime for a, b in zip(purges, purges[1:]))


class TestFloodKeysAreBuiltOnce:
    @pytest.mark.parametrize("packet", [
        RouteRequest(origin=3, destination=BROADCAST_ADDRESS, rreq_id=7),
        JoinRequest(origin=3, destination=BROADCAST_ADDRESS, group=-2, rreq_id=7),
        GroupHello(origin=3, destination=BROADCAST_ADDRESS, group=-2, leader=3, group_seq=7),
        JoinQuery(origin=3, destination=BROADCAST_ADDRESS, group=-2, source=3, query_seq=7),
        LeaderHandoff(origin=3, destination=BROADCAST_ADDRESS, group=-2, leader=3, group_seq=7),
    ], ids=lambda packet: type(packet).__name__)
    def test_one_tuple_per_packet(self, packet):
        assert 3 in packet.flood_key and 7 in packet.flood_key
        assert packet.forwarded(ttl=packet.ttl - 1).flood_key is packet.flood_key


@pytest.fixture(scope="module")
def doubled_quick_run():
    """A quick MAODV + gossip run twice as long as the profile's."""
    scenario = Scenario(ScenarioConfig.quick(seed=1, duration_s=130.0, source_stop_s=110.0)).build()
    scenario.run()
    return scenario


def _seen_caches(scenario):
    for router in scenario.aodv.values():
        yield router._seen_rreqs
    for router in scenario.multicast.values():
        yield router._seen_join_requests
        yield router._seen_group_hellos


class TestSeenCachesOverARun:
    def test_every_cache_shares_one_key_per_flood(self, doubled_quick_run):
        keys = [key for cache in _seen_caches(doubled_quick_run) for key in cache]
        floods = set(keys)
        assert len(keys) > 3 * len(floods)  # most floods reach most nodes
        assert len({id(key) for key in keys}) == len(floods)

    def test_no_cache_holds_more_than_two_lifetimes_of_keys(self, doubled_quick_run):
        caches = list(_seen_caches(doubled_quick_run))
        assert max(cache.lifetime for cache in caches) * 2 < 130.0  # the run outlives them
        assert sum(map(len, caches)) > 0
        for cache in caches:
            if cache:
                marks = cache.values()  # expiry = mark time + one lifetime
                assert max(marks) - min(marks) < 2 * cache.lifetime
