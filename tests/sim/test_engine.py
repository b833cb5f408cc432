"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_in(2.0, fired.append, ("late",))
        sim.call_in(1.0, fired.append, ("early",))
        sim.call_in(1.5, fired.append, ("middle",))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_run_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.call_in(1.0, fired.append, (label,))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.call_in(0.5, lambda: times.append(sim.now))
        sim.call_in(3.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 3.25]
        assert sim.now == 3.25

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_non_callable_raises_when_it_fires(self):
        sim = Simulator()
        sim.call_in(1.0, "not callable")
        with pytest.raises(TypeError):
            sim.run()

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.call_in(1.0, chain, (depth + 1,))

        sim.call_in(1.0, chain, (0,))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_zero_delay_event_runs_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: sim.call_in(0.0, fired.append, (sim.now,)))
        sim.run()
        assert fired == [1.0]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, fired.append, ("a",))
        sim.call_in(10.0, fired.append, ("b",))
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_run_until_includes_events_at_exact_boundary(self):
        sim = Simulator()
        fired = []
        sim.call_in(5.0, fired.append, ("boundary",))
        sim.run(until=5.0)
        assert fired == ["boundary"]

    def test_resume_after_partial_run(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, fired.append, ("a",))
        sim.call_in(10.0, fired.append, ("b",))
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 10.0

    def test_run_advances_clock_to_until_when_queue_drains(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.call_in(2.0, fired.append, ("b",))
        sim.run()
        assert fired == ["a"]

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.call_in(float(i + 1), fired.append, (i,))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_in(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_clear_drops_pending_events(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, fired.append, ("a",))
        sim.clear()
        sim.run()
        assert fired == []

    @pytest.mark.parametrize("engine", ["plain", "sharded"])
    def test_nan_horizon_rejected(self, engine):
        from repro.sim.shard import ShardedSimulator

        sim = Simulator() if engine == "plain" else ShardedSimulator(2)
        sim.call_in(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        # The rejected call left the engine usable.
        sim.run(until=2.0)
        assert sim.events_processed == 1


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        entry = sim.call_in(1.0, fired.append, ("a",))
        assert sim.cancel(entry) is True
        sim.run()
        assert fired == []
        assert sim.cancel(entry) is False

    def test_entry_is_cancellable_until_it_fires(self):
        sim = Simulator()
        entry = sim.call_in(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.cancel(entry) is False

    def test_cancel_after_firing_is_noop(self):
        sim = Simulator()
        fired = []
        entry = sim.call_in(1.0, fired.append, ("a",))
        sim.run()
        assert sim.cancel(entry) is False
        assert sim.tombstones == 0
        assert fired == ["a"]

    def test_pending_events_counts_only_live_events(self):
        sim = Simulator()
        keep = sim.call_in(1.0, lambda: None)
        drop = sim.call_in(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert sim.cancel(keep) is True
