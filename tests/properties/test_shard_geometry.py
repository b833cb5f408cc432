"""Property-based tests for ShardPlan neighbor/halo geometry.

The interest-filtered boundary exchange and the halo-filtered spatial
indexes both stand on one geometric claim: ``region_distance`` (and its
disc query ``shards_within``) is *sound* -- every point actually within
``radius`` of a region is reported as such.  A false
negative there would silently drop a cross-shard reception, which the
bit-identity suites could only catch by luck; this suite pins the claim
directly over area x shard count x range.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.shard import ShardPlan


_plan_args = dict(
    shards=st.integers(min_value=1, max_value=12),
    width=st.floats(min_value=50.0, max_value=2000.0, allow_nan=False),
    height=st.floats(min_value=50.0, max_value=2000.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestRegionDistanceProperties:
    @given(**_plan_args)
    @settings(max_examples=80, deadline=None)
    def test_shard_of_point_is_at_distance_zero(self, shards, width, height, seed):
        plan = ShardPlan.build(shards, width, height)
        rng = random.Random(seed)
        for _ in range(20):
            x = rng.uniform(0.0, width)
            y = rng.uniform(0.0, height)
            home = plan.shard_of(x, y)
            assert plan.region_distance(home, x, y) == 0.0
            assert home in plan.shards_within(x, y, 0.0)

    @given(**_plan_args)
    @settings(max_examples=80, deadline=None)
    def test_distance_is_a_true_lower_bound_flat(self, shards, width, height, seed):
        """No point of the region is closer than the reported distance."""
        plan = ShardPlan.build(shards, width, height)
        rng = random.Random(seed)
        for _ in range(10):
            x = rng.uniform(-width, 2 * width)
            y = rng.uniform(-height, 2 * height)
            shard = rng.randrange(shards)
            reported = plan.region_distance(shard, x, y)
            x0, y0, x1, y1 = plan.region_bounds(shard)
            for _ in range(15):
                px = rng.uniform(x0, x1)
                py = rng.uniform(y0, y1)
                assert math.hypot(px - x, py - y) >= reported - 1e-9

    @given(**_plan_args)
    @settings(max_examples=80, deadline=None)
    def test_distance_is_attained(self, shards, width, height, seed):
        """The region's point nearest ``(x, y)`` is exactly that far away,
        so the halo admits no radio that cannot reach the region."""
        plan = ShardPlan.build(shards, width, height)
        rng = random.Random(seed)
        for _ in range(10):
            x = rng.uniform(-width, 2 * width)
            y = rng.uniform(-height, 2 * height)
            shard = rng.randrange(shards)
            x0, y0, x1, y1 = plan.region_bounds(shard)
            nearest_x = min(max(x, x0), x1)
            nearest_y = min(max(y, y0), y1)
            assert plan.region_distance(shard, x, y) == math.hypot(
                nearest_x - x, nearest_y - y)


    @given(**_plan_args)
    @settings(max_examples=80, deadline=None)
    def test_a_point_outside_the_area_is_homed_in_the_nearest_region(
            self, shards, width, height, seed):
        """``shard_of`` clamps onto the edge region closest to the point."""
        plan = ShardPlan.build(shards, width, height)
        rng = random.Random(seed)
        for _ in range(20):
            x = rng.uniform(-width, 2 * width)
            y = rng.uniform(-height, 2 * height)
            nearest = min(plan.region_distance(s, x, y) for s in range(shards))
            assert plan.region_distance(plan.shard_of(x, y), x, y) <= nearest + 1e-9


class TestHaloSoundness:
    """Every point within cs_range of a region is in that region's halo set.

    Construction: pick a point q inside shard s's region and offset it by at
    most ``cs_range``; the offset point p is then within ``cs_range`` of the
    region by construction, so ``region_distance(s, p) <= cs_range`` must
    hold (p is in s's halo) and s must appear in ``shards_within(p,
    cs_range)``.
    """

    @given(
        cs_range=st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
        **_plan_args,
    )
    @settings(max_examples=120, deadline=None)
    def test_flat(self, shards, width, height, seed, cs_range):
        plan = ShardPlan.build(shards, width, height)
        rng = random.Random(seed)
        for _ in range(15):
            shard = rng.randrange(shards)
            x0, y0, x1, y1 = plan.region_bounds(shard)
            qx = rng.uniform(x0, x1)
            qy = rng.uniform(y0, y1)
            angle = rng.uniform(0.0, 2 * math.pi)
            r = rng.uniform(0.0, cs_range)
            px = qx + r * math.cos(angle)
            py = qy + r * math.sin(angle)
            assert plan.region_distance(shard, px, py) <= cs_range + 1e-9
            assert shard in plan.shards_within(px, py, cs_range + 1e-9)
