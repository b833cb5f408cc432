"""Unit tests for the region-sharded engine primitives.

The property-level proof (identical golden digests for any shard count)
lives in ``tests/properties/test_shard_equivalence.py``; these tests pin
the primitives directly: the partition geometry of :class:`ShardPlan`, the
sync-window derivation, and the :class:`ShardedSimulator` run loop --
global event ordering across heaps, cancellation, horizons, compaction and
clearing.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import ShardedSimulator, ShardPlan, _boundaries


# ------------------------------------------------------------------- plan
class TestShardPlan:
    def test_near_square_factorisation(self):
        plan = ShardPlan.build(4, 200.0, 200.0)
        assert (plan.rows, plan.cols) == (2, 2)
        plan = ShardPlan.build(6, 300.0, 200.0)
        # The longer axis gets the more columns.
        assert (plan.rows, plan.cols) == (2, 3)
        plan = ShardPlan.build(6, 200.0, 300.0)
        assert (plan.rows, plan.cols) == (3, 2)

    def test_prime_counts_degrade_to_strips(self):
        plan = ShardPlan.build(5, 500.0, 100.0)
        assert (plan.rows, plan.cols) == (1, 5)

    def test_every_position_maps_to_exactly_one_shard(self):
        plan = ShardPlan.build(4, 200.0, 100.0)
        for x in (0.0, 37.5, 99.999, 100.0, 150.0, 199.999):
            for y in (0.0, 49.999, 50.0, 99.999):
                assert 0 <= plan.shard_of(x, y) < 4

    def test_far_edges_and_float_overshoot_clamp_inward(self):
        plan = ShardPlan.build(4, 200.0, 200.0)
        # Exactly on the far edges (float error can also produce marginal
        # overshoot): clamp into the last row/column, never raise.
        assert plan.shard_of(200.0, 200.0) == 3
        assert plan.shard_of(200.0000001, -0.0000001) == 1

    def test_boundary_positions_are_deterministic(self):
        # A transmitter sitting exactly on an interior boundary belongs to
        # the upper cell (half-open regions), on every call.
        plan = ShardPlan.build(4, 200.0, 200.0)
        assert plan.shard_of(100.0, 0.0) == 1
        assert plan.shard_of(0.0, 100.0) == 2
        assert plan.shard_of(100.0, 100.0) == 3
        assert plan.shard_of(99.9999, 99.9999) == 0

    def test_region_bounds_tile_the_area(self):
        plan = ShardPlan.build(6, 300.0, 200.0)
        for shard in range(6):
            x0, y0, x1, y1 = plan.region_bounds(shard)
            assert plan.shard_of(x0, y0) == shard
            assert plan.shard_of((x0 + x1) / 2, (y0 + y1) / 2) == shard
        with pytest.raises(ValueError):
            plan.region_bounds(6)

    def test_shard_of_matches_bounds_membership(self):
        plan = ShardPlan.build(8, 170.0, 230.0)
        for x in range(0, 170, 7):
            for y in range(0, 230, 11):
                shard = plan.shard_of(float(x), float(y))
                x0, y0, x1, y1 = plan.region_bounds(shard)
                assert x0 <= x < x1 + 1e-9
                assert y0 <= y < y1 + 1e-9

    def test_invalid_builds_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.build(0, 100.0, 100.0)
        with pytest.raises(ValueError):
            ShardPlan.build(2, 0.0, 100.0)

    def test_sync_window_derivation(self):
        # 0.1 * range / speed, clamped to [5 ms, 500 ms].
        assert ShardPlan.sync_window(55.0, 1.0) == 0.5  # 5.5 s, clamped down
        assert ShardPlan.sync_window(55.0, 20.0) == pytest.approx(0.275)
        assert ShardPlan.sync_window(5.0, 200.0) == pytest.approx(5e-3)
        # Static (or unknown-speed) fleets get the maximum window.
        assert ShardPlan.sync_window(55.0, 0.0) == 0.5
        assert ShardPlan.sync_window(55.0, None) == 0.5
        # An explicit override wins.
        assert ShardPlan.sync_window(55.0, 20.0, override=0.05) == 0.05
        with pytest.raises(ValueError):
            ShardPlan.sync_window(55.0, 1.0, override=0.0)

    def test_boundaries_cover_the_duration_exactly(self):
        bounds = _boundaries(1.0, 0.3)
        assert bounds == [0.3, 0.6, 0.8999999999999999, 1.0]
        assert _boundaries(0.5, 0.5) == [0.5]
        assert _boundaries(0.2, 0.5) == [0.2]


# ----------------------------------------------------------------- engine
class TestShardedSimulator:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedSimulator(0)

    def test_is_sharded_flag(self):
        assert ShardedSimulator(2).is_sharded is True
        assert Simulator().is_sharded is False

    def test_global_time_order_across_shards(self):
        sim = ShardedSimulator(3)
        fired = []
        sim.set_shard(2)
        sim.call_in(1.0, fired.append, ("c",))
        sim.set_shard(0)
        sim.call_in(3.0, fired.append, ("a",))
        sim.set_shard(1)
        sim.call_in(2.0, fired.append, ("b",))
        sim.run()
        assert fired == ["c", "b", "a"]
        assert sim.now == 3.0
        assert sim.shard_events == [1, 1, 1]

    def test_ties_fire_in_scheduling_order_across_shards(self):
        # The sequence counter is global, so same-time events fire in the
        # order they were scheduled regardless of which heap they sat in --
        # exactly the single-heap engine's tie-break.
        sim = ShardedSimulator(4)
        fired = []
        for index, shard in enumerate([3, 0, 2, 1, 0, 3]):
            sim.set_shard(shard)
            sim.call_in(1.0, fired.append, (index,))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_matches_single_heap_engine_schedule(self):
        # The same scheduling script, round-robined over shards, executes
        # in the identical order the plain engine picks.
        def script(sim, route):
            fired = []
            for index, (delay, shard) in enumerate(
                [(2.0, 0), (1.0, 1), (1.0, 2), (3.0, 0), (0.5, 2), (2.0, 1)]
            ):
                route(sim, shard)
                sim.call_in(delay, fired.append, (index,))
            sim.run()
            return fired

        plain = script(Simulator(), lambda sim, shard: None)
        sharded = script(ShardedSimulator(3), lambda sim, shard: sim.set_shard(shard))
        assert sharded == plain

    def test_callbacks_schedule_into_their_own_shard(self):
        sim = ShardedSimulator(2)
        fired = []

        def chain(label, depth):
            fired.append((label, sim.current_shard))
            if depth:
                sim.call_in(1.0, chain, (label, depth - 1))

        sim.set_shard(0)
        sim.call_in(1.0, chain, ("a", 2))
        sim.set_shard(1)
        sim.call_in(1.5, chain, ("b", 2))
        sim.run()
        # Execution re-aliases the heap to the firing event's shard, so a
        # callback's follow-up lands in the same region by default.
        assert fired == [
            ("a", 0), ("b", 1), ("a", 0), ("b", 1), ("a", 0), ("b", 1),
        ]
        assert sim.shard_events == [3, 3]

    def test_until_horizon_is_exact_and_resumable(self):
        sim = ShardedSimulator(2)
        fired = []
        sim.set_shard(1)
        sim.call_in(1.0, fired.append, ("early",))
        sim.call_in(2.0, fired.append, ("late",))
        sim.run(until=1.5)
        assert fired == ["early"]
        assert sim.now == 1.5
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_until_with_empty_calendar_advances_clock(self):
        sim = ShardedSimulator(3)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_events_at_exactly_until_fire(self):
        sim = ShardedSimulator(2)
        fired = []
        sim.set_shard(1)
        sim.call_in(2.0, fired.append, ("x",))
        sim.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_and_stop(self):
        sim = ShardedSimulator(2)
        fired = []
        for index in range(6):
            sim.set_shard(index % 2)
            sim.call_in(float(index), fired.append, (index,))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

        def stopper():
            sim.stop()

        sim.set_shard(0)
        sim.call_in(0.0, stopper, ())  # fires before the pending t=3..5 batch
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.pending_events == 3
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_cancellation_and_tombstones_across_shards(self):
        sim = ShardedSimulator(2)
        fired = []
        sim.set_shard(1)
        entry = sim.call_in(1.0, fired.append, ("cancelled",))
        sim.call_in(2.0, fired.append, ("kept",))
        assert sim.cancel(entry) is True
        assert sim.tombstones == 1
        sim.run()
        assert fired == ["kept"]
        assert sim.cancel(entry) is False

    def test_compaction_sheds_tombstones_in_every_heap(self):
        sim = ShardedSimulator(2)
        entries = []
        for index in range(200):
            sim.set_shard(index % 2)
            entries.append(sim.call_in(1.0 + index, lambda: None))
        for entry in entries[:150]:
            sim.cancel(entry)
        assert sim.compactions >= 1
        assert sim.tombstones * 2 <= sim.heap_size
        assert sim.pending_events == 50

    def test_clear_empties_every_heap(self):
        sim = ShardedSimulator(3)
        for shard in range(3):
            sim.set_shard(shard)
            sim.call_in(1.0, lambda: None, ())
        assert sim.heap_sizes() == [1, 1, 1]
        sim.clear()
        assert sim.heap_sizes() == [0, 0, 0]
        assert sim.pending_events == 0
        sim.run()  # nothing left to fire
        assert sim.events_processed == 0

    def test_scheduling_lands_in_current_shard(self):
        sim = ShardedSimulator(2)
        fired = []
        sim.set_shard(1)
        for i in range(5):
            sim.call_in(float(i), fired.append, (i,))
        assert sim.heap_sizes() == [0, 5]
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_nested_run_rejected(self):
        sim = ShardedSimulator(2)

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_in(0.0, reenter, ())
        sim.run()

    def test_single_shard_degenerates_to_plain_engine(self):
        sim = ShardedSimulator(1)
        fired = []
        sim.call_in(1.0, fired.append, ("x",))
        sim.run()
        assert fired == ["x"]
        assert sim.shard_events == [1]
