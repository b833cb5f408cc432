"""The ``segment()`` motion contract of every mobility model.

``segment(t) -> (x, y, vx, vy, until)`` promises the position at ``t`` --
bit-equal to ``position(t)`` -- and a constant velocity for every instant of
``[t, until)``.  The spatial index turns those promises into exact verdict
deadlines, so each one is checked per model here.
"""

import math
import random

import pytest

from repro.mobility.base import MobilityModel, RectangularArea
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import RpgmMobility, _clamp_axis, build_group_reference
from repro.mobility.static import StaticMobility
from repro.mobility.trace import WaypointTraceMobility
from repro.net.spatial import UniformGridIndex
from repro.sim.random import RandomStreams
from tests.net.reference_medium import LinearScanIndex

AREA = RectangularArea(200.0, 200.0)
TIMES = [0.0, 0.25, 1.5, 8.0, 33.0, 33.0, 120.0, 121.7, 300.0]


def _rng(seed=1, node=0):
    return RandomStreams(seed).for_node("mobility", node)


def _models():
    reference = build_group_reference(AREA, _rng(2, 9), max_speed_mps=2.0)
    return [
        StaticMobility(10.0, 10.0),
        WaypointTraceMobility([(0, 0, 0), (100, 100, 0), (140, 100, 0), (140, 20, 50)]),
        RandomWaypointMobility(AREA, _rng(), max_speed_mps=2.0, max_pause_s=5.0),
        GaussMarkovMobility(AREA, _rng(), max_speed_mps=2.0),
        ManhattanGridMobility(AREA, _rng(), max_speed_mps=2.0, max_pause_s=5.0),
        RpgmMobility(AREA, reference, _rng(), group_radius_m=15.0, member_speed_mps=1.0),
    ]


def _per_model(test):
    return pytest.mark.parametrize(
        "mobility", _models(), ids=lambda m: type(m).__name__)(test)


class TestSegmentContract:
    @_per_model
    def test_segment_position_is_bit_equal_to_position(self, mobility):
        for t in TIMES:
            x, y, _, _, until = mobility.segment(t)
            assert (x, y) == mobility.position(t)
            assert until >= t

    @_per_model
    def test_position_follows_the_segment_until_it_ends(self, mobility):
        for t in TIMES:
            x, y, vx, vy, until = mobility.segment(t)
            end = min(until, t + 50.0)
            for fraction in (0.0, 0.3, 0.7, 0.999999):
                probe = t + (end - t) * fraction
                px, py = mobility.position(probe)
                assert math.hypot(px - (x + vx * (probe - t)),
                                  py - (y + vy * (probe - t))) <= 1e-9

    @_per_model
    def test_at_rest_segments_are_bit_constant(self, mobility):
        for t in TIMES:
            x, y, vx, vy, until = mobility.segment(t)
            if vx == 0.0 and vy == 0.0 and until > t:
                probe = t + (min(until, t + 50.0) - t) * 0.5
                assert mobility.position(probe) == (x, y)
                assert mobility.position_hold(t) == ((x, y), until)

    @_per_model
    def test_at_rest_segments_hold_to_their_last_instant(self, mobility):
        # The position memo reuses an at-rest segment up to ``until``
        # exclusive, so the last float before it must still be bit-equal.
        for t in TIMES:
            x, y, vx, vy, until = mobility.segment(t)
            if vx == 0.0 and vy == 0.0 and t < until < math.inf:
                assert mobility.position(math.nextafter(until, t)) == (x, y)

    @pytest.mark.parametrize(
        "mobility",
        [m for m in _models() if not isinstance(m, (WaypointTraceMobility, RpgmMobility))],
        ids=lambda m: type(m).__name__,
    )
    def test_mid_leg_and_pausing_segments_have_a_future(self, mobility):
        # Leg-based models are always mid-leg or pausing.  (A trace query
        # exactly on a waypoint, or an RPGM member on a clamp edge, may
        # legitimately promise nothing.)
        for t in TIMES:
            assert mobility.segment(t)[4] > t

    def test_velocity_matches_the_leg(self):
        trace = WaypointTraceMobility([(0, 0, 0), (10, 100, 50), (20, 100, 50)])
        assert trace.segment(4.0) == (40.0, 20.0, 10.0, 5.0, 10.0)
        assert trace.segment(12.0) == (100.0, 50.0, 0.0, 0.0, 20.0)
        assert trace.segment(25.0) == (100.0, 50.0, 0.0, 0.0, math.inf)

    def test_static_segment_never_ends_and_follows_teleports(self):
        mobility = StaticMobility(3.0, 4.0)
        assert mobility.segment(7.0) == (3.0, 4.0, 0.0, 0.0, math.inf)
        fired = []
        mobility.add_position_listener(lambda: fired.append(True))
        mobility.move_to(1.0, 0.0)
        assert fired == [True]
        assert mobility.segment(7.0) == (1.0, 0.0, 0.0, 0.0, math.inf)

    def test_trace_jump_ends_the_segment_before_it(self):
        trace = WaypointTraceMobility([(0, 0, 0), (5, 10, 0), (5, 500, 0), (15, 510, 0)])
        assert trace.segment(2.0)[4] == 5.0
        # On the waypoint the jump follows: nothing can be promised.
        assert trace.segment(5.0) == (10.0, 0.0, 2.0, 0.0, 5.0)
        x, y, vx, vy, until = trace.segment(5.0 + 1e-9)
        assert x == pytest.approx(500.0) and (vx, vy, until) == (1.0, 0.0, 15.0)

    def test_queries_may_arrive_out_of_order(self):
        forward = RandomWaypointMobility(AREA, random.Random(3), max_speed_mps=3.0)
        shuffled = RandomWaypointMobility(AREA, random.Random(3), max_speed_mps=3.0)
        times = [10.0, 400.0, 5.0, 350.0, 42.0, 0.0]
        expected = {t: forward.segment(t) for t in sorted(times)}
        for t in times:
            assert shuffled.segment(t) == expected[t]


class TestRpgmClamp:
    """The clamp onto the area is the one non-linear piece of any model."""

    def _member(self, reference_trace, offset=(25.0, 25.0)):
        # member_speed 0 freezes the offset walk at its initial draw; pin
        # that draw so the member sits exactly ``offset - radius`` off the
        # reference.
        draws = list(offset)

        class _Fixed:
            def uniform(self, low, high):
                return draws.pop(0)

        return RpgmMobility(
            AREA, WaypointTraceMobility(reference_trace), _Fixed(),
            group_radius_m=25.0, member_speed_mps=0.0,
        )

    def test_clamp_engagement_ends_the_segment(self):
        # The reference walks out over the right edge at 2 m/s from x=190;
        # the member rides on it and reaches the edge at t=5.
        member = self._member([(0, 190.0, 100.0), (20, 230.0, 100.0)])
        x, y, vx, vy, until = member.segment(1.0)
        assert (x, y, vx, vy) == (192.0, 100.0, 2.0, 0.0)
        assert until == pytest.approx(5.0)
        # Pinned to the edge: at rest on that axis until the segment ends.
        assert member.segment(6.0) == (200.0, 100.0, 0.0, 0.0, 20.0)

    def test_clamp_release_ends_the_segment(self):
        # Coming back from beyond the left edge: pinned until x re-enters.
        member = self._member([(0, -10.0, 50.0), (10, 10.0, 60.0)])
        x, y, vx, vy, until = member.segment(2.0)
        assert (x, vx, vy) == (0.0, 0.0, 1.0)
        assert until == pytest.approx(5.0)
        x, y, vx, vy, until = member.segment(6.0)
        assert (vx, vy, until) == (2.0, 1.0, 10.0)
        assert x == pytest.approx(2.0)

    @pytest.mark.parametrize("edge", ["left", "right"])
    def test_pinned_hold_ends_while_the_axis_is_still_pinned(self, edge):
        # The reference comes back inside at an awkward speed, so the
        # crossing instant is not a float.  The member's x is re-interpolated
        # from the reference leg at every query; wherever a pinned hold is
        # sampled, x must still be exactly the edge at the hold's last float.
        if edge == "left":
            member = self._member([(0.0, -10.3, 50.0), (7.7, 10.1, 50.0)])
            pinned = 0.0
        else:
            member = self._member([(0.0, 214.6, 50.0), (7.5, 187.0, 50.0)])
            pinned = 200.0
        holds = 0
        for step in range(400):
            t = step * 0.0097
            x, y, vx, vy, until = member.segment(t)
            if vx == 0.0 and vy == 0.0 and until > t:
                holds += 1
                assert x == pinned
                assert member.position(math.nextafter(until, t)) == (pinned, 50.0)
        assert holds > 300

    def test_axis_within_the_guard_of_release_promises_nothing(self):
        assert _clamp_axis(-2e-9, 1.0, 200.0) == (0.0, 0.0, pytest.approx(1e-9))
        assert _clamp_axis(-1e-10, 1.0, 200.0) == (0.0, 0.0, 0.0)
        assert _clamp_axis(200.0 + 1e-10, -1.0, 200.0) == (200.0, 0.0, 0.0)
        assert _clamp_axis(-1e-10, -1.0, 200.0) == (0.0, 0.0, math.inf)

    def test_member_pinned_in_a_corner_is_at_rest(self):
        member = self._member([(0, 250.0, 250.0), (10, 260.0, 270.0)])
        assert member.segment(3.0) == (200.0, 200.0, 0.0, 0.0, 10.0)


class TestDefaultSegment:
    """A model overriding only ``position`` promises nothing -- correctly."""

    class _Orbit(MobilityModel):
        def position(self, at_time):
            return (50.0 + 30.0 * math.cos(at_time), 50.0 + 30.0 * math.sin(at_time))

    def test_default_segments_are_zero_length(self):
        orbit = self._Orbit()
        for t in TIMES:
            x, y = orbit.position(t)
            assert orbit.segment(t) == (x, y, 0.0, 0.0, t)
            assert orbit.position_hold(t) == ((x, y), t)
        assert orbit.speed_bound_mps is None

    def test_default_model_classifies_correctly_through_the_grid(self):
        class _Radio:
            def __init__(self, node_id, mobility):
                self.node = self
                self.node_id = node_id
                self.mobility = mobility
                self.enabled = True

            def position(self, at_time):
                return self.mobility.position(at_time)

        radios = [_Radio(0, StaticMobility(50.0, 50.0)), _Radio(1, self._Orbit()),
                  _Radio(2, StaticMobility(70.0, 50.0))]
        grid = UniformGridIndex(cell_m=20.0, slack_m=2.0)
        naive = LinearScanIndex()
        for radio in radios:
            grid.add(radio)
            naive.add(radio)
        for step in range(200):
            now = step * 0.05
            for sender in radios[:2]:
                # 31 m > the 30 m orbit radius keeps the centre pair in
                # range; the orbiter's pair with node 2 cuts in and out.
                got = [m[1] for m in grid.interferers(sender, 31.0, now)]
                want = [m[1] for m in naive.interferers(sender, 31.0, now)]
                assert got == want
