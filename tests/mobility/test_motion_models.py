"""Unit tests for the Gauss-Markov, RPGM and Manhattan mobility models."""

import math

import pytest

from repro.mobility.base import RectangularArea
from repro.mobility.config import (
    MOBILITY_MODELS,
    RPGM_GROUP_SIZE,
    MobilityConfig,
    build_fleet,
    fleet_speed_bound,
)
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import RpgmMobility, build_group_reference
from repro.sim.random import RandomStreams

AREA = RectangularArea(200.0, 200.0)

#: Probe instants used by the generic property tests.
TIMES = [0.0, 0.7, 3.0, 9.5, 27.0, 61.3, 180.0, 599.0]


def _rng(seed, name="mobility", node=0):
    return RandomStreams(seed).for_node(name, node)


def _build(model, seed=3):
    if model == "gauss_markov":
        return GaussMarkovMobility(AREA, _rng(seed), max_speed_mps=2.0)
    if model == "manhattan":
        return ManhattanGridMobility(
            AREA, _rng(seed), max_speed_mps=2.0, max_pause_s=5.0,
        )
    if model == "rpgm":
        reference = build_group_reference(
            AREA, _rng(seed, "ref"), max_speed_mps=2.0, max_pause_s=5.0
        )
        return RpgmMobility(
            AREA, reference, _rng(seed), group_radius_m=20.0, member_speed_mps=1.0,
            max_pause_s=5.0,
        )
    return RandomWaypointMobility(AREA, _rng(seed), max_speed_mps=2.0, max_pause_s=5.0)


@pytest.mark.parametrize("model", ["gauss_markov", "manhattan", "rpgm"])
class TestMotionContract:
    def test_positions_stay_inside_the_area(self, model):
        mobility = _build(model)
        for t in TIMES:
            assert AREA.contains(mobility.position(t))

    def test_same_seed_same_trajectory(self, model):
        a = _build(model, seed=11)
        b = _build(model, seed=11)
        for t in TIMES:
            assert a.position(t) == b.position(t)

    def test_different_seeds_diverge(self, model):
        a = _build(model, seed=11)
        b = _build(model, seed=12)
        assert any(a.position(t) != b.position(t) for t in TIMES)

    def test_speed_bound_holds_between_samples(self, model):
        mobility = _build(model)
        bound = mobility.speed_bound_mps
        assert bound is not None and bound > 0
        previous_t, previous_p = 0.0, mobility.position(0.0)
        for i in range(1, 400):
            t = i * 0.5
            p = mobility.position(t)
            distance = math.hypot(p[0] - previous_p[0], p[1] - previous_p[1])
            assert distance <= bound * (t - previous_t) + 1e-9
            previous_t, previous_p = t, p

    def test_position_hold_is_honest(self, model):
        mobility = _build(model)
        held = 0
        for t in TIMES:
            position, hold_until = mobility.position_hold(t)
            assert position == mobility.position(t)
            assert hold_until >= t
            if hold_until > t and hold_until != math.inf:
                held += 1
                probe = t + (hold_until - t) * 0.5
                assert mobility.position(probe) == position


class TestGaussMarkov:
    def test_zero_max_speed_is_static(self):
        mobility = GaussMarkovMobility(AREA, _rng(1), max_speed_mps=0.0)
        start = mobility.position(0.0)
        assert mobility.position(500.0) == start
        _, hold_until = mobility.position_hold(1.0)
        assert hold_until == math.inf

    def test_high_alpha_moves_smoothly(self):
        # With strong memory the heading changes little per step: consecutive
        # step displacements must be positively aligned on average.
        mobility = GaussMarkovMobility(
            AREA, _rng(5), max_speed_mps=2.0, alpha=0.95,
            direction_sigma_rad=0.2, edge_margin_m=0.0,
        )
        dots = []
        previous = None
        for i in range(60):
            a = mobility.position(i * 2.0)
            b = mobility.position((i + 1) * 2.0)
            step = (b[0] - a[0], b[1] - a[1])
            if previous is not None and (step != (0.0, 0.0)) and previous != (0.0, 0.0):
                na = math.hypot(*previous)
                nb = math.hypot(*step)
                dots.append((previous[0] * step[0] + previous[1] * step[1]) / (na * nb))
            previous = step
        assert sum(dots) / len(dots) > 0.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussMarkovMobility(AREA, _rng(1), alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovMobility(AREA, _rng(1), step_s=0.0)
        with pytest.raises(ValueError):
            GaussMarkovMobility(AREA, _rng(1), max_speed_mps=-1.0)


class TestManhattan:
    def test_positions_lie_on_streets(self):
        mobility = ManhattanGridMobility(
            AREA, _rng(9), blocks_x=4, blocks_y=4, max_speed_mps=2.0,
        )
        sx, sy = 200.0 / 4, 200.0 / 4
        for t in [i * 1.7 for i in range(120)]:
            x, y = mobility.position(t)
            on_vertical = min(abs(x - i * sx) for i in range(5)) < 1e-6
            on_horizontal = min(abs(y - j * sy) for j in range(5)) < 1e-6
            assert on_vertical or on_horizontal

    def test_zero_max_speed_parks_the_node(self):
        mobility = ManhattanGridMobility(AREA, _rng(2), max_speed_mps=0.0)
        assert mobility.position(300.0) == mobility.position(0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ManhattanGridMobility(AREA, _rng(1), blocks_x=0)
        with pytest.raises(ValueError):
            ManhattanGridMobility(AREA, _rng(1), turn_probability=1.5)


class TestRpgm:
    def test_members_stay_near_their_reference(self):
        reference = build_group_reference(AREA, _rng(4, "ref"), max_speed_mps=2.0)
        members = [
            RpgmMobility(
                AREA, reference, _rng(4, node=i), group_radius_m=20.0,
                member_speed_mps=1.0,
            )
            for i in range(4)
        ]
        # Offsets live in a box of half-width R around the reference, so a
        # member is never further than R*sqrt(2) from it (before clamping,
        # which only pulls positions further inward).
        limit = 20.0 * math.sqrt(2.0) + 1e-9
        for t in TIMES:
            rx, ry = reference.position(t)
            for member in members:
                x, y = member.position(t)
                # Clamping can only shrink the distance when the reference
                # is inside the area, which build_group_reference guarantees.
                assert math.hypot(x - rx, y - ry) <= limit

    def test_speed_bound_sums_reference_and_member(self):
        reference = build_group_reference(AREA, _rng(4, "ref"), max_speed_mps=2.0)
        member = RpgmMobility(
            AREA, reference, _rng(4), group_radius_m=10.0, member_speed_mps=0.75,
        )
        assert member.speed_bound_mps == pytest.approx(2.75)

    def test_zero_member_speed_is_a_rigid_formation(self):
        reference = build_group_reference(AREA, _rng(6, "ref"), max_speed_mps=1.0)
        member = RpgmMobility(
            AREA, reference, _rng(6), group_radius_m=15.0, member_speed_mps=0.0,
        )
        offsets = set()
        for t in TIMES:
            rx, ry = reference.position(t)
            x, y = member.position(t)
            # Ignore instants where the clamp is active (member pushed back
            # inside the area).
            if 15.0 <= x <= 185.0 and 15.0 <= y <= 185.0:
                offsets.add((round(x - rx, 9), round(y - ry, 9)))
        assert len(offsets) == 1


class TestFleetFactory:
    def test_known_models_build_complete_fleets(self):
        for model in MOBILITY_MODELS:
            fleet = build_fleet(
                MobilityConfig(model=model), AREA, 9, RandomStreams(5),
                min_speed_mps=0.0, max_speed_mps=1.5, max_pause_s=10.0,
                member_groups=[[1, 4, 7]],
            )
            assert len(fleet) == 9
            assert all(m is not None for m in fleet)

    @pytest.mark.parametrize("model, direct", [
        ("random_waypoint", lambda rng: RandomWaypointMobility(
            AREA, rng, min_speed_mps=0.0, max_speed_mps=1.0, max_pause_s=5.0,
        )),
        # The fleet passes the speed envelope only; every other parameter is
        # the model class's keyword default.
        ("gauss_markov", lambda rng: GaussMarkovMobility(AREA, rng, max_speed_mps=1.0)),
        ("manhattan", lambda rng: ManhattanGridMobility(
            AREA, rng, min_speed_mps=0.0, max_speed_mps=1.0, max_pause_s=5.0,
        )),
    ], ids=["random_waypoint", "gauss_markov", "manhattan"])
    def test_fleet_matches_direct_construction(self, model, direct):
        fleet = build_fleet(
            MobilityConfig(model=model), AREA, 3, RandomStreams(8),
            min_speed_mps=0.0, max_speed_mps=1.0, max_pause_s=5.0,
        )
        expected = [direct(RandomStreams(8).for_node("mobility", i)) for i in range(3)]
        for t in TIMES:
            for built, model_node in zip(fleet, expected):
                assert built.position(t) == model_node.position(t)

    def test_rpgm_members_walk_at_half_the_max_speed(self):
        fleet = build_fleet(
            MobilityConfig(model="rpgm"), AREA, 6, RandomStreams(3),
            min_speed_mps=0.0, max_speed_mps=3.0, max_pause_s=5.0,
        )
        assert {member.member_speed_mps for member in fleet} == {1.5}
        assert max(m.speed_bound_mps for m in fleet) == fleet_speed_bound(
            MobilityConfig(model="rpgm"), 3.0
        )

    def test_rpgm_aligns_multicast_members_to_one_reference(self):
        fleet = build_fleet(
            MobilityConfig(model="rpgm"), AREA, 10,
            RandomStreams(3), min_speed_mps=0.0, max_speed_mps=1.0,
            max_pause_s=5.0, member_groups=[[0, 2, 4]],
        )
        assert fleet[0].reference is fleet[2].reference is fleet[4].reference
        # Non-members are chunked separately, by id, RPGM_GROUP_SIZE a group.
        rest = [1, 3, 5, 6, 7, 8, 9]
        chunks = [rest[:RPGM_GROUP_SIZE], rest[RPGM_GROUP_SIZE:]]
        references = [{id(fleet[n].reference) for n in chunk} for chunk in chunks]
        assert [len(group) for group in references] == [1, 1]
        assert len(set.union(*references, {id(fleet[0].reference)})) == 3

    def test_fleet_speed_bound(self):
        assert fleet_speed_bound(MobilityConfig(), 2.0) == 2.0
        assert fleet_speed_bound(MobilityConfig(model="rpgm"), 2.0) == pytest.approx(3.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            MobilityConfig(model="teleporting")
