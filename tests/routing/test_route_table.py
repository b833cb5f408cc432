"""Unit tests for the AODV route table: freshness rules and the HELLO mailbox."""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.routing.messages import HelloMessage
from repro.routing.route_table import RouteTable


class TestLookup:
    def test_lookup_returns_usable_route(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        entry = table.lookup(5, now=1.0)
        assert entry is not None
        assert entry.next_hop == 2
        assert entry.hop_count == 3

    def test_lookup_misses_unknown_destination(self):
        assert RouteTable().lookup(9, now=0.0) is None

    def test_expired_route_not_returned(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        assert table.lookup(5, now=11.0) is None

    def test_invalidated_route_not_returned_but_entry_kept(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.invalidate(5)
        assert table.lookup(5, now=1.0) is None
        assert table.entry(5) is not None


class TestFreshnessRules:
    def test_newer_sequence_number_replaces_route(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        changed = table.update(destination=5, next_hop=7, hop_count=9, seq=2, expiry_time=10.0)
        assert changed
        assert table.lookup(5, 0.0).next_hop == 7

    def test_same_seq_shorter_route_replaces(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        changed = table.update(destination=5, next_hop=7, hop_count=2, seq=1, expiry_time=10.0)
        assert changed
        assert table.lookup(5, 0.0).next_hop == 7

    def test_same_seq_longer_route_ignored(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        changed = table.update(destination=5, next_hop=7, hop_count=5, seq=1, expiry_time=10.0)
        assert not changed
        assert table.lookup(5, 0.0).next_hop == 2

    def test_stale_seq_ignored(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=5, expiry_time=10.0)
        changed = table.update(destination=5, next_hop=7, hop_count=1, seq=4, expiry_time=10.0)
        assert not changed
        assert table.lookup(5, 0.0).next_hop == 2

    def test_confirming_update_extends_lifetime(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=25.0)
        assert table.entry(5).expiry_time == 25.0

    def test_invalid_route_replaced_regardless_of_seq(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=5, expiry_time=10.0)
        table.invalidate(5)
        changed = table.update(destination=5, next_hop=9, hop_count=4, seq=3, expiry_time=10.0)
        assert changed
        assert table.lookup(5, 0.0).next_hop == 9


class TestInvalidation:
    def test_invalidate_bumps_sequence_number(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=7, expiry_time=10.0)
        broken = table.invalidate(5)
        assert broken.seq == 8

    def test_invalidate_unknown_destination_returns_none(self):
        assert RouteTable().invalidate(5) is None

    def test_invalidate_through_next_hop(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.update(destination=6, next_hop=2, hop_count=2, seq=1, expiry_time=10.0)
        table.update(destination=7, next_hop=3, hop_count=2, seq=1, expiry_time=10.0)
        broken = table.invalidate_through(2)
        assert sorted(entry.destination for entry in broken) == [5, 6]
        assert table.lookup(7, 0.0) is not None

    def test_refresh_extends_active_route(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.refresh(5, expiry_time=50.0)
        assert table.lookup(5, 40.0) is not None

    def test_refresh_ignores_invalid_route(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.invalidate(5)
        table.refresh(5, expiry_time=50.0)
        assert table.lookup(5, 20.0) is None


class TestHousekeeping:
    def test_destinations_and_len(self):
        table = RouteTable()
        table.update(destination=5, next_hop=2, hop_count=1, seq=1, expiry_time=10.0)
        table.update(destination=3, next_hop=2, hop_count=1, seq=1, expiry_time=10.0)
        assert table.destinations() == [3, 5]
        assert len(table) == 2


HELLO_LIFETIME_S = 2.4


def _fields(entry):
    if entry is None:
        return None
    return (entry.destination, entry.next_hop, entry.hop_count, entry.seq,
            entry.expiry_time, entry.valid)


def _hello(sender, seq):
    return HelloMessage(origin=sender, destination=-1, seq=seq)


class TestHelloMailbox:
    def test_fold_applies_the_last_receipt_per_neighbour(self):
        table = RouteTable(hello_lifetime_s=HELLO_LIFETIME_S)
        table.hellos[4] = (_hello(4, 7), 1.0)
        table.hellos[4] = (_hello(4, 8), 1.6)
        assert _fields(table.entry(4)) == (4, 4, 1, 8, 1.6 + HELLO_LIFETIME_S, True)
        assert table.hellos == {}

    def test_fold_keeps_first_receipt_order_and_precedes_the_triggering_insert(self):
        # Insertion order is observable: it orders ``invalidate_through``'s
        # result and with it the contents of a RERR.
        table = RouteTable(hello_lifetime_s=HELLO_LIFETIME_S)
        mailbox = table.hellos
        for at, sender in enumerate((7, 3, 7)):
            mailbox[sender] = (_hello(sender, 1), float(at))
        table.update(destination=9, next_hop=3, hop_count=2, seq=1, expiry_time=10.0)
        assert [entry.destination for entry in table] == [7, 3, 9]
        # The node's receive table holds this very dict: folding empties it,
        # never replaces it.
        assert table.hellos is mailbox and mailbox == {}

    def test_link_break_after_a_pending_hello_sees_refreshed_then_broken(self):
        table = RouteTable(hello_lifetime_s=HELLO_LIFETIME_S)
        table.update(destination=6, next_hop=2, hop_count=3, seq=1, expiry_time=10.0)
        table.hellos[2] = (_hello(2, 5), 1.0)
        broken = table.invalidate_through(2)
        assert [_fields(entry) for entry in broken] == [
            (6, 2, 3, 2, 10.0, False),
            (2, 2, 1, 6, 1.0 + HELLO_LIFETIME_S, False),
        ]


    def test_a_known_neighbours_receipt_waits_for_a_read_of_its_route(self):
        table = RouteTable(hello_lifetime_s=HELLO_LIFETIME_S)
        table.hellos[4] = (_hello(4, 1), 0.5)
        table.update(destination=9, next_hop=4, hop_count=2, seq=1, expiry_time=10.0)
        table.hellos[4] = (_hello(4, 2), 1.0)
        table.hellos[5] = (_hello(5, 1), 1.5)
        # 5 is new: folded before the read; 4 has an entry: still pending.
        assert table.lookup(9, 2.0).next_hop == 4
        assert list(table.hellos) == [4]
        assert _fields(table.entry(4)) == (4, 4, 1, 2, 1.0 + HELLO_LIFETIME_S, True)
        assert table.hellos == {}
        assert [entry.destination for entry in table] == [4, 9, 5]


class CoalescingAgainstEager(RuleBasedStateMachine):
    """The coalescing table against an **eager oracle** -- a second table on
    which the test calls ``update`` per HELLO receipt, as ``_on_hello`` did --
    through random interleavings of receipts and every table operation.

    After every step the two hold equal entries **in iteration order**.  The
    comparison reads a deep copy, so the receipts pending on the table under
    test stay pending across steps.  After an operation on one destination
    D, no receipt is pending for D or for a sender without an entry; after
    one that reads every entry, none is pending at all.
    """

    nodes = st.integers(min_value=0, max_value=5)

    def __init__(self):
        super().__init__()
        self.lazy = RouteTable(hello_lifetime_s=HELLO_LIFETIME_S)
        self.eager = RouteTable()
        self.now = 0.0
        self.hello_seq = {}
        #: Next never-seen node id (above ``nodes``) for a new neighbour.
        self.fresh = 100

    def _both(self, operation, destination=None):
        """Run one operation on both tables (on ``destination``, or on every
        entry when ``None``); the results must agree."""
        got, expected = operation(self.lazy), operation(self.eager)
        assert got == expected
        pending = self.lazy.hellos
        if destination is None:
            assert not pending  # drained before the read or write
        else:
            assert destination not in pending
            assert pending.keys() <= self.lazy._entries.keys()

    def _receive(self, sender, seq):
        self.lazy.hellos[sender] = (_hello(sender, seq), self.now)
        self.eager.update(sender, sender, 1, seq, self.now + HELLO_LIFETIME_S)

    @rule(sender=nodes, bump=st.sampled_from((0, 0, 0, 1, 2)),
          dt=st.floats(min_value=0.001, max_value=1.5))
    def receipt(self, sender, bump, dt):
        # Per sender the HELLO ``seq`` never decreases; time only advances.
        self.now += dt
        seq = self.hello_seq[sender] = self.hello_seq.get(sender, 3) + bump
        self._receive(sender, seq)

    @rule(inserts=st.lists(st.tuples(st.booleans(), st.integers(1, 3)),
                           min_size=1, max_size=4),
          dt=st.floats(min_value=0.001, max_value=1.5))
    def new_neighbours_between_inserts(self, inserts, dt):
        # Receipts from never-seen neighbours interleaved with inserts of
        # never-seen destinations: their relative order is the table's.
        self.now += dt
        for heard_first, hop_count in inserts:
            if heard_first:
                self._receive(self.fresh, 1)
                self.fresh += 1
            destination = self.fresh
            self.fresh += 1
            self._both(
                lambda t: t.update(destination, 0, hop_count, 1, self.now + 3.0),
                destination,
            )

    @rule(destination=nodes, next_hop=nodes, hop_count=st.integers(1, 3),
          seq=st.integers(0, 8), lifetime=st.floats(min_value=0.0, max_value=5.0))
    def update(self, destination, next_hop, hop_count, seq, lifetime):
        expiry = self.now + lifetime
        self._both(lambda t: t.update(destination, next_hop, hop_count, seq, expiry),
                   destination)

    @rule(destination=nodes, lifetime=st.floats(min_value=0.0, max_value=5.0))
    def refresh(self, destination, lifetime):
        expiry = self.now + lifetime
        self._both(lambda t: t.refresh(destination, expiry), destination)

    @rule(destination=nodes)
    def invalidate(self, destination):
        self._both(lambda t: _fields(t.invalidate(destination)), destination)

    @rule(next_hop=nodes)
    def invalidate_through(self, next_hop):
        self._both(lambda t: [_fields(e) for e in t.invalidate_through(next_hop)])

    @rule(destination=nodes)
    def lookup(self, destination):
        self._both(lambda t: _fields(t.lookup(destination, self.now)), destination)

    @rule(destination=nodes)
    def entry(self, destination):
        self._both(lambda t: _fields(t.entry(destination)), destination)

    @rule()
    def iterate(self):
        self._both(lambda t: [_fields(e) for e in t])

    @rule()
    def length(self):
        self._both(len)

    @rule()
    def destinations(self):
        self._both(lambda t: t.destinations())

    @invariant()
    def same_entries_in_iteration_order(self):
        pending = copy.deepcopy(self.lazy)
        assert [_fields(e) for e in pending] == [_fields(e) for e in self.eager]


TestCoalescingAgainstEager = CoalescingAgainstEager.TestCase
TestCoalescingAgainstEager.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
