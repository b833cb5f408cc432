"""Unit tests for the medium's spatial index (memo, grid, linear scan)."""

import math
from dataclasses import replace

import pytest

from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.net.config import RadioConfig
from repro.mobility.base import RectangularArea
from repro.mobility.static import StaticMobility
from repro.mobility.trace import WaypointTraceMobility
from repro.net.spatial import PositionMemo, UniformGridIndex, crossing_delay
from repro.sim.random import RandomStreams
from tests.net.reference_medium import LinearScanIndex


class _FakeNode:
    def __init__(self, node_id, mobility):
        self.node_id = node_id
        self.mobility = mobility

    def position(self, at_time):
        return self.mobility.position(at_time)


class _FakePhy:
    """Just enough of a Phy for the index: node, node_id, position, enabled."""

    def __init__(self, node_id, mobility):
        self.node = _FakeNode(node_id, mobility)
        self.enabled = True

    @property
    def node_id(self):
        return self.node.node_id

    def position(self, at_time):
        return self.node.position(at_time)


def _static_phy(node_id, x, y):
    return _FakePhy(node_id, StaticMobility(x, y))


class TestMobilityHooks:
    def test_static_holds_forever(self):
        mobility = StaticMobility(3.0, 4.0)
        position, hold_until = mobility.position_hold(10.0)
        assert position == (3.0, 4.0)
        assert hold_until == math.inf
        assert mobility.speed_bound_mps == 0.0

    def test_static_move_fires_listeners(self):
        mobility = StaticMobility(0.0, 0.0)
        fired = []
        mobility.add_position_listener(lambda: fired.append(True))
        mobility.move_to(5.0, 5.0)
        assert fired == [True]

    def test_random_waypoint_hold_matches_position(self):
        area = RectangularArea(100.0, 100.0)
        rng = RandomStreams(7).for_node("mobility", 0)
        mobility = RandomWaypointMobility(area, rng, max_speed_mps=2.0, max_pause_s=10.0)
        for t in [0.0, 1.0, 3.7, 12.4, 55.0, 200.0]:
            position, hold_until = mobility.position_hold(t)
            assert position == mobility.position(t)
            assert hold_until >= t or hold_until == t
            if hold_until > t:
                # The node claims it is pausing: probe inside the hold window.
                probe = t + (hold_until - t) * 0.5
                assert mobility.position(probe) == position
        assert mobility.speed_bound_mps == 2.0

    def test_trace_speed_bound_and_holds(self):
        trace = WaypointTraceMobility([(0, 0, 0), (10, 100, 0), (20, 100, 0)])
        assert trace.speed_bound_mps == pytest.approx(10.0)
        # Flat segment between t=10 and t=20 holds.
        position, hold_until = trace.position_hold(14.0)
        assert position == (100.0, 0.0)
        assert hold_until == 20.0
        # After the last waypoint the position holds forever.
        _, hold_until = trace.position_hold(25.0)
        assert hold_until == math.inf

    def test_trace_with_jump_has_no_speed_bound(self):
        trace = WaypointTraceMobility([(0, 0, 0), (5, 10, 0), (5, 500, 0)])
        assert trace.speed_bound_mps is None


class TestCrossingDelay:
    """Seconds until |D + V*t|^2 leaves the open band (inner_sq, outer_sq)."""

    def test_receding_pair_reaches_the_outer_boundary(self):
        # 10 m apart, separating at 2 m/s: 20 m is 5 s away.
        assert crossing_delay(100.0, 20.0, 4.0, -1.0, 400.0) == pytest.approx(5.0)

    def test_approaching_pair_reaches_the_inner_boundary_first(self):
        # 30 m apart, closing head-on at 2 m/s: 20 m is 5 s away; the far
        # side of the outer 40 m circle would only come after passing through.
        assert crossing_delay(900.0, -60.0, 4.0, 400.0, 1600.0) == pytest.approx(5.0)

    def test_passing_pair_that_misses_the_inner_circle_exits_outwards(self):
        # Offset (-30, 25) moving at (2, 0): closest approach 25 m > 20 m,
        # so the only exit is the 40 m circle on the far side.
        delay = crossing_delay(30.0 ** 2 + 25.0 ** 2, -60.0, 4.0, 400.0, 1600.0)
        assert delay == pytest.approx((30.0 + math.sqrt(1600.0 - 625.0)) / 2.0)

    def test_receding_pair_beyond_every_range_never_returns(self):
        assert crossing_delay(10_000.0, 5.0, 1.0, 3600.0, math.inf) == math.inf

    def test_pair_on_or_outside_the_band_is_due_now(self):
        assert crossing_delay(400.0, -1.0, 1.0, 400.0, math.inf) == 0.0
        assert crossing_delay(400.0, 1.0, 1.0, -1.0, 400.0) == 0.0


class TestPositionMemo:
    def test_exact_matches_mobility(self):
        memo = PositionMemo()
        phy = _FakePhy(0, StaticMobility(1.0, 2.0))
        memo.track(phy)
        assert memo.exact(0, 5.0) == (1.0, 2.0)

    def test_interpolates_once_per_instant(self):
        calls = []

        class _Counting(StaticMobility):
            def segment(self, at_time):
                calls.append(at_time)
                x, y = self._position
                return (x, y, 0.0, 0.0, at_time)  # promise nothing

        memo = PositionMemo()
        memo.track(_FakePhy(0, _Counting(0.0, 0.0)))
        memo.exact(0, 1.0)
        memo.exact(0, 1.0)
        memo.segment(0, 1.0)
        assert calls == [1.0]
        memo.exact(0, 2.0)
        assert calls == [1.0, 2.0]

    def test_hold_survives_across_instants(self):
        calls = []

        class _Counting(WaypointTraceMobility):
            def segment(self, at_time):
                calls.append(at_time)
                return super().segment(at_time)

        # At rest until t=50, then moving.
        memo = PositionMemo()
        memo.track(_FakePhy(0, _Counting([(0, 5, 5), (50, 5, 5), (60, 15, 5)])))
        assert memo.exact(0, 1.0) == (5.0, 5.0)
        assert memo.exact(0, 49.0) == (5.0, 5.0)
        assert calls == [1.0]
        # A moving node is re-sampled on every new instant: only the model's
        # own interpolation is bit-equal to position().
        assert memo.exact(0, 52.0) == (7.0, 5.0)
        assert memo.exact(0, 53.0) == (8.0, 5.0)
        assert calls == [1.0, 52.0, 53.0]

    def test_unknown_speed_bound_recomputes(self):
        class _NoHints:
            """Mobility without any motion-service attribute."""

            def __init__(self):
                self._position = (0.0, 0.0)

            def position(self, at_time):
                return self._position

        phy = _FakePhy(0, _NoHints())
        memo = PositionMemo()
        memo.track(phy)
        assert memo.segment(0, 0.0) == (0.0, 0.0, 0.0, 0.0, 0.0)
        phy.node.mobility._position = (99.0, 0.0)
        assert memo.exact(0, 1.0) == (99.0, 0.0)

    def test_invalidate_drops_entry(self):
        mobility = StaticMobility(0.0, 0.0)
        memo = PositionMemo()
        memo.track(_FakePhy(0, mobility))
        memo.exact(0, 0.0)
        mobility.move_to(50.0, 0.0)
        memo.invalidate(0)
        assert memo.exact(0, 0.0) == (50.0, 0.0)


class TestUniformGridIndex:
    def _index(self, phys, cell_m=50.0, slack_m=5.0):
        index = UniformGridIndex(cell_m=cell_m, slack_m=slack_m)
        for phy in phys:
            index.add(phy)
        return index

    def test_candidates_cover_all_in_radius(self):
        phys = [_static_phy(i, 17.0 * i, 3.0 * i) for i in range(30)]
        index = self._index(phys)
        origin = (100.0, 20.0)
        got = {phy.node_id for _, _, phy in index.candidates(origin, 60.0, 0.0)}
        for phy in phys:
            x, y = phy.position(0.0)
            if math.hypot(x - origin[0], y - origin[1]) <= 60.0:
                assert phy.node_id in got

    def test_candidates_prune_far_nodes(self):
        phys = [_static_phy(0, 0.0, 0.0), _static_phy(1, 1000.0, 1000.0)]
        index = self._index(phys)
        got = {phy.node_id for _, _, phy in index.candidates((0.0, 0.0), 60.0, 0.0)}
        assert got == {0}

    def test_candidates_in_registration_order(self):
        phys = [_static_phy(5, 0.0, 0.0), _static_phy(2, 1.0, 0.0), _static_phy(9, 2.0, 0.0)]
        index = self._index(phys)
        ids = [phy.node_id for _, _, phy in index.candidates((0.0, 0.0), 60.0, 0.0)]
        assert ids == [5, 2, 9]

    def test_negative_coordinates_floor_into_their_own_cells(self):
        # Truncating toward zero would put x in (-50, 0) into cell 0, with
        # x in [0, 50); flooring gives each its own cell.
        index = UniformGridIndex(cell_m=50.0, slack_m=5.0)
        assert index._cell_key(-10.0, -60.0) == (-1, -2)
        assert index._cell_key(0.0, 49.9) == (0, 0)
        phys = [_static_phy(i, -17.0 * i, -3.0 * i) for i in range(12)]
        index = self._index(phys)
        origin = (-40.0, -10.0)
        got = {phy.node_id for _, _, phy in index.candidates(origin, 60.0, 0.0)}
        for phy in phys:
            x, y = phy.position(0.0)
            if math.hypot(x - origin[0], y - origin[1]) <= 60.0:
                assert phy.node_id in got

    def test_grid_rebuilds_after_teleport(self):
        mobility = StaticMobility(0.0, 0.0)
        phy = _FakePhy(0, mobility)
        index = self._index([phy])
        assert [p.node_id for _, _, p in index.candidates((0.0, 0.0), 10.0, 0.0)] == [0]
        mobility.move_to(500.0, 0.0)
        index.invalidate(0)
        assert index.candidates((0.0, 0.0), 10.0, 0.0) == []
        assert [p.node_id for _, _, p in index.candidates((500.0, 0.0), 10.0, 0.0)] == [0]

    def test_grid_stays_valid_within_slack_budget(self):
        phys = [_static_phy(i, 10.0 * i, 0.0) for i in range(5)]
        index = self._index(phys)
        index.candidates((0.0, 0.0), 20.0, 0.0)
        rebuilds = index.grid_rebuilds
        # Static fleet: no amount of elapsed time forces a rebuild.
        index.candidates((0.0, 0.0), 20.0, 1000.0)
        assert index.grid_rebuilds == rebuilds

    def test_moving_fleet_rebuilds_once_drift_exceeds_slack(self):
        trace = WaypointTraceMobility([(0, 0, 0), (1000, 1000, 0)])  # 1 m/s
        index = UniformGridIndex(cell_m=50.0, slack_m=5.0)
        index.add(_FakePhy(0, trace))
        index.candidates((0.0, 0.0), 20.0, 0.0)
        rebuilds = index.grid_rebuilds
        index.candidates((0.0, 0.0), 20.0, 1.0)  # 1 m of drift: within slack
        assert index.grid_rebuilds == rebuilds
        index.candidates((0.0, 0.0), 20.0, 100.0)  # 100 m: must rebuild
        assert index.grid_rebuilds == rebuilds + 1

    def test_interferers_match_linear_scan(self):
        streams = RandomStreams(3)
        area = RectangularArea(200.0, 200.0)
        mobilities = [
            RandomWaypointMobility(
                area, streams.for_node("mobility", i), max_speed_mps=2.0, max_pause_s=5.0
            )
            for i in range(25)
        ]
        grid_phys = [_FakePhy(i, m) for i, m in enumerate(mobilities)]
        grid = UniformGridIndex(cell_m=30.0, slack_m=4.0)
        naive = LinearScanIndex()
        for phy in grid_phys:
            grid.add(phy)
            naive.add(phy)
        for now in [0.0, 3.5, 7.25, 11.0, 30.0, 31.0]:
            sender = grid_phys[0]
            got = [(order, node_id) for order, node_id, _ in grid.interferers(sender, 45.0, now)]
            want = [(order, node_id) for order, node_id, _ in naive.interferers(sender, 45.0, now)]
            assert got == want, f"diverged at t={now}"

    def test_interferers_skip_disabled(self):
        phys = [_static_phy(0, 0.0, 0.0), _static_phy(1, 10.0, 0.0), _static_phy(2, 20.0, 0.0)]
        phys[1].enabled = False
        index = self._index(phys)
        hit = [phy.node_id for _, _, phy in index.interferers(phys[0], 60.0, 0.0)]
        assert hit == [2]


class TestKineticWindows:
    """Per-sender windows with exact verdict deadlines stay exact."""

    def _moving_fleet(self, model, count=20, seed=6):
        from repro.mobility.config import MobilityConfig, build_fleet

        fleet = build_fleet(
            MobilityConfig(model=model),
            RectangularArea(200.0, 200.0),
            count,
            RandomStreams(seed),
            min_speed_mps=0.0,
            max_speed_mps=2.0,
            max_pause_s=3.0,
            member_groups=[[0, 3, 6, 9]],
        )
        return [_FakePhy(i, m) for i, m in enumerate(fleet)]

    @pytest.mark.parametrize(
        "model", ["random_waypoint", "gauss_markov", "rpgm", "manhattan"]
    )
    def test_interferers_match_linear_scan_for_moving_senders(self, model):
        phys = self._moving_fleet(model)
        grid = UniformGridIndex(cell_m=30.0, slack_m=4.0)
        naive = LinearScanIndex()
        for phy in phys:
            grid.add(phy)
            naive.add(phy)
        # Dense probing: windows are built, hit repeatedly between verdict
        # deadlines, partially re-resolved at them, and rebuilt on expiry.
        for step in range(60):
            now = step * 0.8
            sender = phys[step % 5]
            got = [(m[0], m[1]) for m in grid.interferers(sender, 45.0, now)]
            want = [(m[0], m[1]) for m in naive.interferers(sender, 45.0, now)]
            assert got == want, f"{model} diverged at t={now}"

    def test_window_is_reused_until_a_verdict_deadline_passes(self):
        trace_mobilities = [
            WaypointTraceMobility([(0, i * 10.0, 0), (1000, i * 10.0 + 100.0 + i, 0)])
            for i in range(6)
        ]  # 0.1 m/s, each a little faster than the one before
        phys = [_FakePhy(i, m) for i, m in enumerate(trace_mobilities)]
        index = UniformGridIndex(cell_m=50.0, slack_m=5.0)
        for phy in phys:
            index.add(phy)
        sender = phys[0]
        index.interferers(sender, 60.0, 1.0)
        assert (index.window_builds, index.window_resolves, index.window_hits) == (1, 5, 0)
        # Node 5 starts 50 m away and separates at 5 mm/s: it stays within
        # 60 m until t=2000, every other pair longer, and the candidate set
        # is good for 50 m / (2 * 0.105 m/s) = 238 s -- calls before that
        # resolve nothing.
        for now in (10.0, 100.0, 230.0):
            hit = index.interferers(sender, 60.0, now)
            assert [m[1] for m in hit] == [1, 2, 3, 4, 5]
        assert (index.window_builds, index.window_resolves, index.window_hits) == (1, 5, 3)

    def test_only_due_members_are_re_resolved(self):
        # Node 1 walks out of the 60 m range at t=20; node 2 never moves.
        phys = [
            _static_phy(0, 0.0, 0.0),
            _FakePhy(1, WaypointTraceMobility([(0, 40.0, 0.0), (100, 140.0, 0.0)])),
            _static_phy(2, 0.0, 30.0),
        ]
        index = UniformGridIndex(cell_m=100.0, slack_m=4.0)
        for phy in phys:
            index.add(phy)

        def reached(now):
            return [m[1] for m in index.interferers(phys[0], 60.0, now)]

        assert reached(1.0) == [1, 2]
        assert index.window_resolves == 2
        assert reached(19.0) == [1, 2]
        assert (index.window_hits, index.window_resolves) == (1, 2)
        # Past node 1's deadline (1 micrometre short of the boundary): one
        # pair is re-resolved, the static pair is not.
        assert reached(20.5) == [2]
        assert (index.window_builds, index.window_resolves) == (1, 3)

    def test_candidate_refresh_keeps_verdicts_that_are_not_due(self):
        phys = [
            _static_phy(0, 0.0, 0.0),
            _FakePhy(1, WaypointTraceMobility([(0, 40.0, 0.0), (100, 140.0, 0.0)])),
            _static_phy(2, 0.0, 30.0),
        ]
        index = UniformGridIndex(cell_m=30.0, slack_m=4.0)
        for phy in phys:
            index.add(phy)
        index.interferers(phys[0], 60.0, 1.0)
        assert (index.window_builds, index.window_resolves) == (1, 2)
        # The candidate set is good for 30 m / (2 * 1 m/s) = 15 s; node 1's
        # verdict for 19 s.  Refreshing the set at t=18 resolves nothing.
        index.interferers(phys[0], 60.0, 18.0)
        assert (index.window_builds, index.window_resolves) == (2, 2)

    def test_teleport_flushes_windows_through_the_medium(self):
        from repro.net.config import RadioConfig
        from repro.net.medium import Medium
        from repro.net.packet import Frame, Packet
        from repro.net.phy import Phy
        from repro.sim.engine import Simulator

        class _Node:
            def __init__(self, node_id, mobility):
                self.node_id = node_id
                self.mobility = mobility

            def position(self, at_time):
                return self.mobility.position(at_time)

        sim = Simulator()
        medium = Medium(sim, RadioConfig(transmission_range_m=50.0))
        mobilities = [StaticMobility(0.0, 0.0), StaticMobility(30.0, 0.0)]
        phys = [Phy(_Node(i, m), medium) for i, m in enumerate(mobilities)]
        received = []
        phys[1].set_receive_callback(lambda frame, sender: received.append(sender))

        def frame():
            return Frame(src=0, dst=1, packet=Packet(origin=0, destination=1, size_bytes=40))

        phys[0].transmit(frame())
        sim.run()
        assert received == [0]
        # Teleport the receiver out of range mid-hold: the static hold would
        # otherwise keep every cached window alive forever.
        mobilities[1].move_to(500.0, 0.0)
        phys[0].transmit(frame())
        sim.run()
        assert received == [0]  # no second delivery
        mobilities[1].move_to(10.0, 0.0)
        phys[0].transmit(frame())
        sim.run()
        assert received == [0, 0]

    @pytest.mark.parametrize("crosses", [False, True])
    def test_transmission_window_keeps_out_of_reach_members_off_the_list(self, crosses):
        # A candidate that resolves beyond range keeps its slot in
        # the window (it may come into range before the candidate set
        # expires) but is on neither the frozen list nor the interferers()
        # view.  When it does cross, a *new* list is handed out and the old
        # one is left as it was; while nothing changes, the same object is.
        if crosses:  # 68 m out until t=10, then closing in at 2 m/s
            waypoints = [(0, 68.0, 0.0), (10, 68.0, 0.0), (20, 48.0, 0.0)]
        else:        # receding at 1 m/s, 68 m out at t=10
            waypoints = [(0, 58.0, 0.0), (1000, 1058.0, 0.0)]
        phys = [_static_phy(0, 0.0, 0.0), _FakePhy(1, WaypointTraceMobility(waypoints))]
        index = UniformGridIndex(cell_m=30.0, slack_m=4.0)
        for phy in phys:
            index.add(phy)

        def window(now):
            return index.transmission_window(phys[0], 60.0, now)

        first = window(10.0)  # beyond the 60 m range
        assert first == []
        assert index.interferers(phys[0], 60.0, 10.0) == []
        assert window(11.0) is first
        if crosses:
            assert window(19.0) == [phys[1]] and first == []
        else:
            assert window(19.0) is first


class TestSpeedAwareCellSize:
    """The default grid cell divisor is picked from the fleet speed bound."""

    def test_slow_fleet_gets_fine_cells(self):
        config = RadioConfig(transmission_range_m=60.0, speed_bound_mps=0.2)
        assert config.grid_cell_m == pytest.approx(60.0 / 3.0)

    def test_fast_fleet_gets_coarse_cells(self):
        config = RadioConfig(transmission_range_m=60.0, speed_bound_mps=2.0)
        assert config.grid_cell_m == pytest.approx(60.0 / 2.0)

    def test_unknown_speed_gets_conservative_cells(self):
        config = RadioConfig(transmission_range_m=60.0)
        assert config.grid_cell_m == pytest.approx(60.0 / 2.0)

    def test_slack_is_an_eighth_of_the_derived_cell(self):
        slow = RadioConfig(transmission_range_m=60.0, speed_bound_mps=0.2)
        assert slow.grid_slack_m == pytest.approx(60.0 / 3.0 / 8.0)
        fast = RadioConfig(transmission_range_m=60.0, speed_bound_mps=2.0)
        assert fast.grid_slack_m == pytest.approx(60.0 / 2.0 / 8.0)

    def test_replace_rederives_the_grid(self):
        wide = replace(RadioConfig(transmission_range_m=60.0), transmission_range_m=90.0)
        assert wide.grid_cell_m == pytest.approx(90.0 / 2.0)
        assert wide.grid_slack_m == pytest.approx(90.0 / 2.0 / 8.0)

    def test_divisor_threshold(self):
        assert RadioConfig.grid_cell_divisor(0.0) == 3.0
        assert RadioConfig.grid_cell_divisor(1.99) == 3.0
        assert RadioConfig.grid_cell_divisor(2.0) == 2.0
        assert RadioConfig.grid_cell_divisor(None) == 2.0

    @pytest.mark.parametrize("divisor", [2.0, 3.0, 4.0])
    def test_cell_size_never_changes_results(self, divisor, monkeypatch):
        """Cell size is a pure perf knob: full-stack runs are bit-identical."""
        from repro.workload.scenario import ScenarioConfig
        from tests.properties.hotpath_golden import run_with_delivery_log

        config = ScenarioConfig.quick(
            num_nodes=10, member_count=4, join_window_s=2.0, source_start_s=5.0,
            source_stop_s=12.0, duration_s=14.0, max_speed_mps=1.0,
            max_pause_s=5.0, seed=9,
        )
        digests = []
        for cell_divisor in (2.0, divisor):
            monkeypatch.setattr(
                RadioConfig, "grid_cell_divisor",
                staticmethod(lambda speed: cell_divisor),
            )
            result, log = run_with_delivery_log(config)
            digests.append((result.member_counts, result.protocol_stats,
                            result.events_processed, log))
        assert digests[0] == digests[1]
