"""The grid's kinetic interference windows against the linear-scan oracle.

A kinetic window caches each sender-receiver verdict until the instant the
pair's linear motion next brings it to a range boundary.  Whatever the
fleet or the probe instants, ``UniformGridIndex.interferers`` must equal
``LinearScanIndex.interferers`` -- so the probes here are aimed at the
instants where a cached verdict is most likely to be stale: the computed
boundary crossings themselves +/- 1 ns, segment ends, teleports, power
cycles and late registrations.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.base import RectangularArea
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import RpgmMobility
from repro.mobility.static import StaticMobility
from repro.mobility.trace import WaypointTraceMobility
from repro.net.spatial import UniformGridIndex
from tests.net.reference_medium import LinearScanIndex

SIDE = 120.0
AREA = RectangularArea(SIDE, SIDE)
HORIZON_S = 40.0
NUDGE_S = 1e-9


class _Radio:
    """Just enough of a ``Phy`` for the indexes: node, id, position, enabled."""

    def __init__(self, node_id, mobility):
        self.node = self
        self.node_id = node_id
        self.mobility = mobility
        self.enabled = True

    def position(self, at_time):
        return self.mobility.position(at_time)


def _mixed_fleet(seed, size):
    """``size`` radios cycling through every mobility model, seeded."""
    rng = random.Random(seed)
    reference = RandomWaypointMobility(
        AREA, random.Random(rng.random()), max_speed_mps=6.0, max_pause_s=2.0
    )

    def trace_with_jump():
        points, t = [], 0.0
        for _ in range(6):
            points.append((t, rng.uniform(0, SIDE), rng.uniform(0, SIDE)))
            # Zero spans are instantaneous jumps; the rest ordinary travel.
            t += rng.choice([0.0, rng.uniform(1.0, 12.0)])
        return WaypointTraceMobility(points)

    builders = [
        lambda: RandomWaypointMobility(
            AREA, random.Random(rng.random()), min_speed_mps=1.0,
            max_speed_mps=8.0, max_pause_s=rng.choice([0.0, 3.0])),
        lambda: GaussMarkovMobility(
            AREA, random.Random(rng.random()), max_speed_mps=5.0, step_s=1.5),
        lambda: ManhattanGridMobility(
            AREA, random.Random(rng.random()), blocks_x=3, blocks_y=3,
            max_speed_mps=6.0, max_pause_s=2.0),
        # A wide group box on a small area keeps members pinned to the border.
        lambda: RpgmMobility(
            AREA, reference, random.Random(rng.random()), group_radius_m=45.0,
            member_speed_mps=2.0),
        # A rigid formation: members co-move with the shared reference.
        lambda: RpgmMobility(
            AREA, reference, random.Random(rng.random()), group_radius_m=20.0,
            member_speed_mps=0.0),
        trace_with_jump,
        lambda: StaticMobility(rng.uniform(0, SIDE), rng.uniform(0, SIDE)),
    ]
    return [_Radio(i, builders[i % len(builders)]()) for i in range(size)]


def _critical_instants(radios, sender, at_time, range_m):
    """Instants after ``at_time`` where some verdict around ``sender`` may flip.

    Worked out from the models' own segments: every root of
    ``|D + V*t| = range_m`` (a boundary crossing, or a tangential touch when the
    roots coincide) and both nodes' segment ends.
    """
    sx, sy, svx, svy, s_until = sender.mobility.segment(at_time)
    instants = [s_until]
    for radio in radios:
        if radio is sender:
            continue
        mx, my, mvx, mvy, m_until = radio.mobility.segment(at_time)
        instants.append(m_until)
        dx, dy = mx - sx, my - sy
        dvx, dvy = mvx - svx, mvy - svy
        a = dvx * dvx + dvy * dvy
        if a == 0.0:
            continue
        b = dx * dvx + dy * dvy
        disc = b * b - a * (dx * dx + dy * dy - range_m * range_m)
        if disc >= 0.0:
            instants += [at_time + (-b - math.sqrt(disc)) / a,
                         at_time + (-b + math.sqrt(disc)) / a]
    return [t for t in instants if at_time < t < HORIZON_S]


def _verdicts(index, sender, range_m, now):
    return [(m[0], m[1]) for m in index.interferers(sender, range_m, now)]


def _indexes():
    return UniformGridIndex(cell_m=25.0, slack_m=3.0), LinearScanIndex()


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    size=st.integers(min_value=8, max_value=16),
    range_m=st.sampled_from([35.0, 40.0, 55.0]),
    base_times=st.lists(
        st.floats(min_value=0.0, max_value=HORIZON_S - 1.0), min_size=4, max_size=8),
)
@settings(max_examples=40, deadline=None)
# An RPGM member pinned to an edge, probed a float before its hold ends.
@example(seed=1493, size=8, range_m=40.0,
         base_times=[0.0, 0.0, 0.0, 14.5])
def test_mixed_fleet_matches_linear_scan_at_critical_instants(
    seed, size, range_m, base_times
):
    radios = _mixed_fleet(seed, size)
    latecomer = radios.pop()
    grid, naive = _indexes()
    for radio in radios:
        grid.add(radio)
        naive.add(radio)
        radio.mobility.add_position_listener(
            lambda node_id=radio.node_id: grid.invalidate(node_id))
    senders = radios[:4]
    probes = set(base_times)
    for at_time in base_times:
        for sender in senders:
            for instant in _critical_instants(radios, sender, at_time, range_m):
                probes.update((instant - NUDGE_S, instant, instant + NUDGE_S))
    probes = sorted(t for t in probes if t >= 0.0)
    # Scripted disturbances, each in the middle of the probe sequence so
    # windows exist before and are used after: a power cycle, a teleport of
    # every static radio, and a radio registering late.
    flicker = radios[5]
    teleports = [r for r in radios if type(r.mobility) is StaticMobility]
    rng = random.Random(seed)
    for number, now in enumerate(probes):
        if number == len(probes) // 4:
            flicker.enabled = False
        if number == len(probes) // 2:
            flicker.enabled = True
            for radio in teleports:
                radio.mobility.move_to(rng.uniform(0, SIDE), rng.uniform(0, SIDE))
        if number == 3 * len(probes) // 4:
            grid.add(latecomer)
            naive.add(latecomer)
        for sender in senders:
            assert grid.exact(sender, now) == sender.position(now)
            assert _verdicts(grid, sender, range_m, now) == _verdicts(
                naive, sender, range_m, now), f"diverged at t={now!r}"
    assert grid.window_hits > 0 or grid.window_resolves > 0


@given(
    gap=st.sampled_from([-1e-3, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 1e-3]),
    heading=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    speed=st.floats(min_value=0.5, max_value=15.0),
)
@settings(max_examples=60, deadline=None)
def test_co_moving_and_tangential_pairs_on_a_boundary(gap, heading, speed):
    """Pairs that sit on, or graze, a range boundary for a whole segment.

    ``gap`` is how far off the 40 m boundary the pair is placed: inside the
    guard band the verdict must be recomputed on every call, outside it the
    cached verdict must be the oracle's.
    """
    ux, uy = math.cos(heading), math.sin(heading)
    span = 20.0
    travel = (ux * speed * span, uy * speed * span)

    def line(x, y):
        return WaypointTraceMobility([(0, x, y), (span, x + travel[0], y + travel[1])])

    distance = 40.0 + gap
    radios = [
        _Radio(0, line(200.0, 200.0)),
        # Co-moving: constant offset, perpendicular to the heading.
        _Radio(1, line(200.0 - uy * distance, 200.0 + ux * distance)),
        # Tangential: a static radio the sender passes at closest approach
        # ``distance`` halfway through its travel.
        _Radio(2, StaticMobility(200.0 + travel[0] / 2.0 - uy * distance,
                                 200.0 + travel[1] / 2.0 + ux * distance)),
    ]
    grid, naive = _indexes()
    for radio in radios:
        grid.add(radio)
        naive.add(radio)
    for step in range(81):
        now = step * span / 80.0
        for nudge in (-NUDGE_S, 0.0, NUDGE_S):
            if now + nudge < 0.0:
                continue
            assert _verdicts(grid, radios[0], 40.0, now + nudge) == _verdicts(
                naive, radios[0], 40.0, now + nudge)


def test_windows_outlive_grid_rebuilds():
    """A slow fleet's candidate sets survive the grid epochs they span."""
    radios = [
        _Radio(i, WaypointTraceMobility([(0, 10.0 * i, 0), (1000, 10.0 * i + 100.0, 0)]))
        for i in range(6)
    ]  # everyone drifts at 0.1 m/s
    grid = UniformGridIndex(cell_m=50.0, slack_m=5.0)
    naive = LinearScanIndex()
    for radio in radios:
        grid.add(radio)
        naive.add(radio)
    sender = radios[0]
    assert _verdicts(grid, sender, 60.0, 0.0) == _verdicts(
        naive, sender, 60.0, 0.0)
    builds, rebuilds = grid.window_builds, grid.grid_rebuilds
    assert builds == 1
    # 5 m of slack at 0.1 m/s: every probe below lands in a new grid epoch
    # (forced through candidates(), as the medium's other queries would),
    # yet the window -- good for 50 m / (2 * 0.1 m/s) = 250 s -- is reused.
    for now in (60.0, 120.0, 180.0, 240.0):
        grid.candidates(sender.position(now), 60.0, now)
        assert _verdicts(grid, sender, 60.0, now) == _verdicts(
            naive, sender, 60.0, now)
    assert grid.grid_rebuilds >= rebuilds + 3
    assert grid.window_builds == builds


@pytest.mark.parametrize("bound_known", [True, False])
def test_candidate_sets_expire_by_the_fleet_speed_bound(bound_known):
    """A far radio racing in is picked up: the set expires before it can matter."""
    far = [(0, 500.0, 0.0), (10, 0.0, 0.0)]  # 50 m/s towards the sender
    if not bound_known:
        far = [(0, 500.0, 0.0), (0, 300.0, 0.0), (10, 0.0, 0.0)]  # a jump: no bound
    radios = [_Radio(0, StaticMobility(0.0, 0.0)), _Radio(1, WaypointTraceMobility(far))]
    grid = UniformGridIndex(cell_m=30.0, slack_m=4.0)
    naive = LinearScanIndex()
    for radio in radios:
        grid.add(radio)
        naive.add(radio)
    for step in range(101):
        now = step * 0.1
        assert _verdicts(grid, radios[0], 60.0, now) == _verdicts(
            naive, radios[0], 60.0, now)
    assert _verdicts(grid, radios[0], 60.0, 10.0) == [(1, 1)]
