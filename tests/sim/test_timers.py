"""Unit tests for periodic timers."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_fires_every_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=5.5)
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_initial_delay(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), delay=2.5)
        timer.start()
        sim.run(until=5.0)
        assert ticks == [2.5, 3.5, 4.5]

    def test_stop_prevents_further_ticks(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.call_in(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not timer.running

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, tick)
        timer.start()
        sim.run(until=10.0)
        assert len(ticks) == 2

    def test_restart_with_new_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=2.0)
        timer.restart(interval=0.5)
        sim.run(until=3.5)
        assert ticks[:3] == [0.0, 1.0, 2.0]
        assert ticks[3:] == [2.0, 2.5, 3.0, 3.5]

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=2.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_ticks_counter(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 0.5, lambda: None)
        timer.start()
        sim.run(until=2.0)
        assert timer.ticks == 5

    def test_jitter_spreads_firing_times(self):
        sim = Simulator()
        ticks = []
        rng = random.Random(7)
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), jitter=0.2, rng=rng)
        timer.start()
        sim.run(until=10.0)
        intervals = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.6 <= interval <= 1.4 for interval in intervals)
        assert len(set(round(i, 6) for i in intervals)) > 1

    def test_jittered_ticks_are_rng_uniform_draw_for_draw(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now), delay=0.3,
                              jitter=0.2, rng=random.Random(7))
        timer.start()
        sim.run(until=20.0)
        rng = random.Random(7)
        expected = [0.0 + (0.3 + rng.uniform(-0.2, 0.2))]
        while len(expected) < len(ticks):
            expected.append(expected[-1] + (1.0 + rng.uniform(-0.2, 0.2)))
        assert ticks == expected and len(ticks) > 15

    def test_restart_inside_the_callback_leaves_one_pending_tick(self):
        # The restart arms a tick (after ``delay``); the callback's own
        # re-arm, one ``interval`` on, cancels and replaces it.
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.restart()

        timer = PeriodicTimer(sim, 1.0, tick, delay=0.25)
        timer.start()
        sim.run(until=4.5)
        assert ticks == [0.25, 1.25, 2.25, 3.25, 4.25]
        assert sim.pending_events == 1

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_jitter_without_rng_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=0.1)

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=-0.1, rng=random.Random(1))

    def test_restart_invalid_interval_rejected(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        with pytest.raises(ValueError):
            timer.restart(interval=-1.0)
