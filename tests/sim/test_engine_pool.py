"""Edge cases of the entry calendar.

The engine keeps each event as one ``[time, seq, callback, args]`` heap entry
and cancels lazily via tombstones, so the dangerous corners are the ones this
module pins: cancelling an event that already fired, cancelling an event from
another event at the same instant, tie-break ordering around cancellations,
tombstone accounting and compaction, and the batched ``schedule_many`` path.
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
        first = sim.schedule(1.0, fired.append, "first")
        sim.run()
        second = sim.schedule(1.0, fired.append, "second")
        # Cancelling the fired handle touches nothing that is pending.
        first.cancel()
        assert sim.tombstones == 0 and sim.pending_events == 1
        sim.run()
        assert fired == ["first", "second"]
        assert first.fired and not first.cancelled
        assert second.fired

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        handle.cancel()
        replacement = sim.schedule(2.0, fired.append, "y")
        handle.cancel()  # stale again, with `replacement` pending
        assert sim.tombstones == 1 and sim.pending_events == 1
        sim.run()
        assert fired == ["y"]
        assert handle.cancelled and replacement.fired

    def test_oneshot_disarm_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        shot = OneShotTimer(sim)
        shot.arm(1.0, fired.append, ("a",))
        sim.run()
        assert not shot.armed
        # Disarm the stale shot with an unrelated event pending: that event
        # survives and no tombstone is counted for the shot that fired.
        sim.schedule(1.0, fired.append, "b")
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
            victim["handle"].cancel()

        sim.schedule(1.0, killer)
        victim["handle"] = sim.schedule(1.0, fired.append, "victim")
        sim.run()
        assert fired == ["killer"]
        handle = victim["handle"]
        assert handle.cancelled and not handle.fired and not handle.pending
        assert sim.tombstones == 0 and sim.pending_events == 0

    def test_event_cancels_and_replaces_sibling_at_same_instant(self):
        # A replacement is scheduled from inside the killer right after the
        # sibling is cancelled; order must follow sequence numbers.
        sim = Simulator()
        fired = []
        victim = {}

        def killer():
            victim["handle"].cancel()
            sim.schedule(0.0, fired.append, "replacement")

        sim.schedule(1.0, killer)
        victim["handle"] = sim.schedule(1.0, fired.append, "victim")
        sim.schedule(1.0, fired.append, "tail")
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
            sim.schedule(0.5, lambda: None)
        sim.run()
        for label in "abcdefgh":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcdefgh")

    def test_interleaved_cancel_and_reschedule_keeps_fifo(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0, fired.append, i) for i in range(6)]
        handles[1].cancel()
        handles[4].cancel()
        for i in range(2):
            sim.schedule(1.0, fired.append, f"late{i}")
        sim.run()
        assert fired == [0, 2, 3, 5, "late0", "late1"]


class TestTombstoneCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        keep = [sim.schedule(2.0, lambda: None) for _ in range(10)]
        drop = [sim.schedule(1.0, lambda: None) for _ in range(500)]
        for handle in drop:
            handle.cancel()
        # Lazy cancellation must not leave 500 tombstones in the heap.
        assert sim.pending_events == 10
        assert len(sim._heap) < 100
        sim.run()
        assert all(h.fired for h in keep)
        assert all(h.cancelled for h in drop)

    @pytest.mark.parametrize("make", [Simulator, lambda: ShardedSimulator(2)])
    def test_clear_detaches_handles_and_resets_tombstones(self, make):
        sim = make()
        done = sim.schedule(0.5, lambda: None)
        sim.run()
        live = sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        shot = OneShotTimer(sim)
        shot.arm(3.0, lambda: None)
        dead.cancel()
        sim.clear()
        assert sim.pending_events == 0 and sim.tombstones == 0
        assert sim.heap_size == 0
        for handle in (live, dead):
            assert handle.cancelled and not handle.fired and not handle.pending
        assert done.fired and not done.cancelled
        assert not shot.armed
        shot.disarm()  # stale: the cleared calendar counts no tombstone
        assert sim.tombstones == 0
        sim.run()
        assert sim.events_processed == 1


class TestScheduleMany:
    def test_bulk_path_on_empty_heap_matches_sequential_order(self):
        bulk = Simulator()
        fired_bulk = []
        bulk.schedule_many(
            (1.0, fired_bulk.append, (label,)) for label in "abc"
        )
        bulk.schedule(1.0, fired_bulk.append, "d")
        bulk.run()
        assert fired_bulk == list("abcd")

    def test_incremental_path_on_nonempty_heap(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "pre")
        count = sim.schedule_many([(1.0, fired.append, ("x",)), (0.25, fired.append, ("y",))])
        assert count == 2
        sim.run()
        assert fired == ["y", "pre", "x"]

    def test_absolute_times_tie_break_with_schedule_at(self):
        # Absolute mode must not round-trip through a delay: an event
        # batched at t=30.3 shares the exact instant (and therefore pure
        # sequence-number tie-breaking) with a schedule_at(30.3) event.
        sim = Simulator()
        fired = []
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.now == 0.1
        sim.schedule_many([(30.3, fired.append, ("batched",))], absolute=True)
        sim.schedule_at(30.3, fired.append, "direct")
        sim.run()
        assert fired == ["batched", "direct"]
        with pytest.raises(SimulationError):
            sim.schedule_many([(1.0, fired.append, ("past",))], absolute=True)

    def test_negative_delay_rejected_and_heap_left_consistent(self):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError):
            sim.schedule_many([(1.0, fired.append, ("ok",)), (-1.0, fired.append, ("bad",))])
        # The valid prefix survives and the heap invariant holds.
        sim.schedule(0.5, fired.append, "later")
        sim.run()
        assert fired == ["later", "ok"]


class TestNanTimesRejected:
    """``nan < 0`` is false, so a plain ``delay < 0`` guard lets NaN into the
    heap, where it breaks the ordering invariant for every later event."""

    def _calendar(self):
        sim = Simulator()
        fired = []
        for when, label in ((2.0, "a"), (1.0, "z"), (0.5, "y")):
            sim.schedule(when, fired.append, label)
        return sim, fired, [list(entry) for entry in sim._heap]

    @pytest.mark.parametrize("schedule", [
        lambda sim, cb: sim.call_in(math.nan, cb),
        lambda sim, cb: sim.call_at(math.nan, cb),
        lambda sim, cb: sim.schedule(math.nan, cb),
        lambda sim, cb: sim.schedule_at(math.nan, cb),
        lambda sim, cb: sim.schedule_many([(math.nan, cb, ())]),
        lambda sim, cb: sim.schedule_many([(math.nan, cb, ())], absolute=True),
    ], ids=["call_in", "call_at", "schedule", "schedule_at",
            "schedule_many", "schedule_many_absolute"])
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
        handles = []
        # Reference model: list of [time, op_index, cancelled] entries.
        reference = []

        for op_index, (delay, kind, target) in enumerate(operations):
            if kind == 2 and handles:
                chosen = target % len(handles)
                handles[chosen].cancel()
                reference[chosen][2] = True
            else:
                handles.append(sim.schedule(delay, fired.append, op_index))
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
