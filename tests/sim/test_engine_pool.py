"""Edge cases of the entry calendar.

The engine keeps each event as one ``[time, seq, callback, args]`` heap entry
and cancels lazily via tombstones, so the dangerous corners are the ones this
module pins: cancelling an event that already fired, cancelling an event from
another event at the same instant, tie-break ordering around cancellations,
and tombstone accounting and compaction.
The final class is a randomized schedule/cancel/run-until property test
against a brute-force reference calendar.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import ShardedSimulator
from repro.sim.timers import OneShotTimer, PeriodicTimer


class TestCancelAfterFire:
    def test_stale_cancel_cannot_kill_a_later_event(self):
        sim = Simulator()
        fired = []
        first = sim.call_in(1.0, fired.append, ("first",))
        sim.run()
        second = sim.call_in(1.0, fired.append, ("second",))
        # Cancelling the fired entry touches nothing that is pending.
        assert sim.cancel(first) is False
        assert sim.tombstones == 0 and sim.pending_events == 1
        sim.run()
        assert fired == ["first", "second"]
        assert sim.cancel(second) is False

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        entry = sim.call_in(1.0, fired.append, ("x",))
        assert sim.cancel(entry) is True
        assert sim.cancel(entry) is False
        replacement = sim.call_in(2.0, fired.append, ("y",))
        assert sim.cancel(entry) is False  # stale again, with `replacement` pending
        assert sim.tombstones == 1 and sim.pending_events == 1
        sim.run()
        assert fired == ["y"]
        assert sim.cancel(replacement) is False

    def test_oneshot_disarm_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        shot = OneShotTimer(sim)
        shot.arm(1.0, fired.append, ("a",))
        sim.run()
        assert not shot.armed
        # Disarm the stale shot with an unrelated event pending: that event
        # survives and no tombstone is counted for the shot that fired.
        sim.call_in(1.0, fired.append, ("b",))
        shot.disarm()
        assert sim.tombstones == 0 and sim.pending_events == 1
        sim.run()
        assert fired == ["a", "b"]

    def test_shot_is_not_armed_inside_its_own_callback(self):
        sim = Simulator()
        seen = []
        shot = OneShotTimer(sim)
        shot.arm(1.0, lambda: seen.append(shot.armed))
        assert shot.armed
        sim.run()
        assert seen == [False]

    @pytest.mark.parametrize("make", [Simulator, lambda: ShardedSimulator(2)])
    def test_call_in_entry_cancels_through_the_simulator(self, make):
        sim = make()
        fired = []
        entry = sim.call_in(1.0, fired.append, ("dropped",))
        sim.call_in(2.0, fired.append, ("kept",))
        assert sim.cancel(entry) is True
        assert sim.cancel(entry) is False  # already cancelled
        assert sim.tombstones == 1 and sim.pending_events == 1
        sim.run()
        assert fired == ["kept"] and sim.tombstones == 0
        assert sim.cancel(entry) is False and sim.tombstones == 0


class TestCancelWhilePopping:
    def test_event_cancels_sibling_at_same_instant(self):
        sim = Simulator()
        fired = []
        victim = {}

        def killer():
            fired.append("killer")
            assert sim.cancel(victim["entry"]) is True

        sim.call_in(1.0, killer)
        victim["entry"] = sim.call_in(1.0, fired.append, ("victim",))
        sim.run()
        assert fired == ["killer"]
        assert sim.cancel(victim["entry"]) is False
        assert sim.tombstones == 0 and sim.pending_events == 0

    def test_event_cancels_and_replaces_sibling_at_same_instant(self):
        # A replacement is scheduled from inside the killer right after the
        # sibling is cancelled; order must follow sequence numbers.
        sim = Simulator()
        fired = []
        victim = {}

        def killer():
            sim.cancel(victim["entry"])
            sim.call_in(0.0, fired.append, ("replacement",))

        sim.call_in(1.0, killer)
        victim["entry"] = sim.call_in(1.0, fired.append, ("victim",))
        sim.call_in(1.0, fired.append, ("tail",))
        sim.run()
        assert fired == ["tail", "replacement"]

    def test_periodic_like_rearm_from_callback(self):
        sim = Simulator()
        fired = []
        shot = OneShotTimer(sim)

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                shot.arm(1.0, tick)

        shot.arm(1.0, tick)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestSameInstantOrdering:
    def test_scheduling_order_survives_earlier_events(self):
        sim = Simulator()
        fired = []
        for _ in range(10):
            sim.call_in(0.5, lambda: None)
        sim.run()
        for label in "abcdefgh":
            sim.call_in(1.0, fired.append, (label,))
        sim.run()
        assert fired == list("abcdefgh")

    def test_interleaved_cancel_and_reschedule_keeps_fifo(self):
        sim = Simulator()
        fired = []
        entries = [sim.call_in(1.0, fired.append, (i,)) for i in range(6)]
        sim.cancel(entries[1])
        sim.cancel(entries[4])
        for i in range(2):
            sim.call_in(1.0, fired.append, (f"late{i}",))
        sim.run()
        assert fired == [0, 2, 3, 5, "late0", "late1"]


class TestTombstoneCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        keep = [sim.call_in(2.0, lambda: None) for _ in range(10)]
        drop = [sim.call_in(1.0, lambda: None) for _ in range(500)]
        for entry in drop:
            sim.cancel(entry)
        # Lazy cancellation must not leave 500 tombstones in the heap.
        assert sim.pending_events == 10
        assert len(sim._heap) < 100
        sim.run()
        assert sim.events_processed == 10
        assert not any(sim.cancel(entry) for entry in keep + drop)

    @pytest.mark.parametrize("make", [Simulator, lambda: ShardedSimulator(2)])
    def test_clear_detaches_entries_and_resets_tombstones(self, make):
        sim = make()
        done = sim.call_in(0.5, lambda: None)
        sim.run()
        live = sim.call_in(1.0, lambda: None)
        dead = sim.call_in(2.0, lambda: None)
        shot = OneShotTimer(sim)
        shot.arm(3.0, lambda: None)
        sim.cancel(dead)
        sim.clear()
        assert sim.pending_events == 0 and sim.tombstones == 0
        assert sim.heap_size == 0
        assert not any(sim.cancel(entry) for entry in (done, live, dead))
        assert sim.tombstones == 0
        assert not shot.armed
        shot.disarm()  # stale: the cleared calendar counts no tombstone
        assert sim.tombstones == 0
        sim.run()
        assert sim.events_processed == 1


class TestNanTimesRejected:
    """``nan < 0`` is false, so a plain ``delay < 0`` guard lets NaN into the
    heap, where it breaks the ordering invariant for every later event."""

    def _calendar(self):
        sim = Simulator()
        fired = []
        for when, label in ((2.0, "a"), (1.0, "z"), (0.5, "y")):
            sim.call_in(when, fired.append, (label,))
        return sim, fired, [list(entry) for entry in sim._heap]

    @pytest.mark.parametrize("schedule", [
        lambda sim, cb: sim.call_in(math.nan, cb),
        lambda sim, cb: sim.call_at(math.nan, cb),
    ], ids=["call_in", "call_at"])
    def test_nan_raises_and_leaves_the_heap_as_it_was(self, schedule):
        sim, fired, before = self._calendar()
        with pytest.raises(SimulationError):
            schedule(sim, lambda: fired.append("nan"))
        assert sim._heap == before and sim._seq == 3
        sim.run()
        assert fired == ["y", "z", "a"] and sim.now == 2.0

    def test_periodic_timer_rejects_nan_interval(self):
        sim, _, before = self._calendar()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, math.nan, lambda: None)
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        with pytest.raises(ValueError):
            timer.restart(math.nan)
        assert sim._heap == before and timer.interval == 1.0


class TestRandomizedScheduleCancelProperty:
    """Randomized schedule/cancel/run-until interleavings vs a reference."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.integers(min_value=0, max_value=2),  # 0/1: schedule, 2: cancel
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_pool_engine_matches_reference_calendar(self, operations, horizon):
        sim = Simulator()
        fired = []
        entries = []
        # Reference model: list of [time, op_index, cancelled] entries.
        reference = []

        for op_index, (delay, kind, target) in enumerate(operations):
            if kind == 2 and entries:
                chosen = target % len(entries)
                sim.cancel(entries[chosen])
                reference[chosen][2] = True
            else:
                entries.append(sim.call_in(delay, fired.append, (op_index,)))
                reference.append([delay, op_index, False])

        sim.run(until=horizon)
        expected = [
            op_index
            for _, op_index, cancelled in sorted(
                (entry for entry in reference if not entry[2] and entry[0] <= horizon),
                key=lambda entry: entry[0],
            )
            if not cancelled
        ]
        # Stable sort on time preserves scheduling order for ties, which is
        # exactly the engine's (time, seq) contract.
        assert fired == expected
        sim.run()
        remaining = [
            op_index
            for _, op_index, cancelled in sorted(
                (entry for entry in reference if not entry[2] and entry[0] > horizon),
                key=lambda entry: entry[0],
            )
        ]
        assert fired == expected + remaining
