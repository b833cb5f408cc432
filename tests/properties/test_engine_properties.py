"""Property-based tests for the simulation engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


@st.composite
def _delays(draw):
    return draw(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                   allow_nan=False, allow_infinity=False),
                         min_size=0, max_size=60))


class TestEngineInvariants:
    @given(_delays())
    @settings(max_examples=80, deadline=None)
    def test_events_always_fire_in_non_decreasing_time_order(self, delays):
        sim = Simulator()
        fired_times = []
        for delay in delays:
            sim.call_in(delay, lambda: fired_times.append(sim.now))
        sim.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delays)

    @given(_delays())
    @settings(max_examples=80, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.call_in(delay, lambda: observed.append(sim.now))
        sim.run()
        assert sim.now == (max(delays) if delays else 0.0)

    @given(_delays(), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_cancelled_events_never_fire(self, delays, cancel_count):
        sim = Simulator()
        fired = []
        entries = [sim.call_in(delay, fired.append, (index,))
                   for index, delay in enumerate(delays)]
        cancelled = {index for index in range(min(cancel_count, len(entries)))}
        for index in cancelled:
            sim.cancel(entries[index])
        sim.run()
        assert set(fired).isdisjoint(cancelled)
        assert len(fired) == len(delays) - len(cancelled)

    @given(_delays(), st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_run_until_only_executes_events_up_to_boundary(self, delays, until):
        sim = Simulator()
        fired_times = []
        for delay in delays:
            sim.call_in(delay, lambda: fired_times.append(sim.now))
        sim.run(until=until)
        assert all(time <= until for time in fired_times)
        expected = sum(1 for delay in delays if delay <= until)
        assert len(fired_times) == expected

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_runs_equal_single_run(self, delays):
        # Running to completion in two steps processes exactly the same events
        # as a single run.
        single = Simulator()
        single_fired = []
        for delay in delays:
            single.call_in(delay, single_fired.append, (delay,))
        single.run()

        stepped = Simulator()
        stepped_fired = []
        for delay in delays:
            stepped.call_in(delay, stepped_fired.append, (delay,))
        midpoint = max(delays) / 2
        stepped.run(until=midpoint)
        stepped.run()
        assert stepped_fired == single_fired
