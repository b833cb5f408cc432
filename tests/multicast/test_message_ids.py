"""One id per multicast message, and the routers' one duplicate cache.

A :class:`MulticastData` builds its ``(source, seq)`` tuple once; every copy
of the message -- forwarded, delivered, served from a gossip history --
carries that one object, so every per-node table keyed by it shares it.
:class:`DuplicateCache` is the bounded first-seen FIFO all three routers
suppress duplicates with; it must behave exactly like the ``OrderedDict`` +
``popitem(last=False)`` each of them used to hand-roll.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario, ScenarioConfig
from repro.multicast.messages import DuplicateCache, MulticastData
from tests.conftest import GROUP, build_network, line_topology, python_calls

#: ``(remember?, key)`` steps over a small key space, so keys repeat.
_steps = st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=80)


def _reference_remember(reference: OrderedDict, key, capacity: int) -> None:
    """The routers' former cache: insert, then pop the oldest past capacity."""
    reference[key] = None
    while len(reference) > capacity:
        reference.popitem(last=False)


def _check_against_reference(cache: DuplicateCache, reference: OrderedDict, steps) -> None:
    for remember, key in steps:
        if remember:
            present = key in cache
            before = list(cache)
            cache.remember(key)
            _reference_remember(reference, key, cache.capacity)
            if present:
                assert list(cache) == before  # a present key keeps its place
        assert (key in cache) == (key in reference)
        # Same members in the same first-seen order: evictions agree too.
        assert list(cache) == list(reference)
        order = cache._order
        assert order is None or (len(order) <= cache.capacity and list(order) == list(cache))


class TestDuplicateCacheIsTheOrderedDict:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8), _steps)
    def test_small_capacities(self, capacity, steps):
        _check_against_reference(DuplicateCache(capacity), OrderedDict(), steps)

    @settings(max_examples=30, deadline=None)
    @given(_steps)
    def test_the_default_capacity_across_its_first_overflow(self, steps):
        # 4090 distinct fill keys leave room for six: the steps overflow it.
        cache, reference = DuplicateCache(4096), OrderedDict()
        for key in range(100, 4190):
            cache.remember(key)
            _reference_remember(reference, key, 4096)
        assert cache._order is None  # not full yet: no FIFO record
        _check_against_reference(cache, reference, steps)

    def test_membership_is_the_dict_lookup(self):
        assert DuplicateCache.__contains__ is dict.__contains__


class TestOneIdPerMessage:
    def test_every_table_shares_the_origin_tuple(self):
        scenario = Scenario(ScenarioConfig.quick(seed=1)).build()
        scenario.run()
        held = []
        for router in scenario.multicast.values():
            held.extend(router._seen_data)
        agents = [agent for group in scenario.gossip_by_group.values() for agent in group.values()]
        assert sum(agent.stats.recovered_messages for agent in agents) > 0
        for agent in agents:
            held.extend(agent.history.message_ids())
        for collector in scenario.collectors.values():
            held.extend(collector._sent_at)
            for member in collector.members:
                # A member's delivery record is per-source marks: no id at all.
                marks = collector.member_record(member).marks
                assert all(type(mark) is bytearray for mark in marks.values())
        assert len(held) > 10 * len(set(held))  # many tables hold each id
        assert len({id(key) for key in held}) == len(set(held))

    def test_a_forwarded_copy_carries_the_same_tuple(self):
        data = MulticastData(origin=0, destination=GROUP, group=GROUP, source=3, seq=7)
        assert data.message_id() == (3, 7)
        assert data.forwarded(ttl=data.ttl - 1, uid=data.uid).message_id() is data.message_id()

    def test_the_accepted_copy_costs_the_cache_one_frame(self):
        router = build_network(line_topology(3, 60.0)).maodv[1]
        router.table.get_or_create(GROUP).enable_next_hop(0)
        data = MulticastData(origin=0, destination=GROUP, group=GROUP, source=0, seq=1)
        calls = python_calls(router._on_multicast_data, data, 0)
        # No id is built (no ``message_id`` frame) and remembering it is one
        # frame, as the per-router helper it replaces was.
        assert calls[: calls.index("tree_neighbors")] == ["_on_multicast_data", "remember"]
        assert data.mid in router._seen_data
