"""Unit tests for the churn models and the membership controller."""

import random
from collections import namedtuple

import pytest

from repro.membership.config import ChurnConfig
from repro.membership.churn import (
    FlashCrowdChurn,
    OnOffChurn,
    PoissonChurn,
    ScriptedChurn,
    build_churn_model,
)
from repro.membership.controller import MembershipController
from repro.metrics.collectors import DeliveryCollector
from repro.sim.engine import Simulator

#: One applied membership change, as the controller's hooks report it.
Event = namedtuple("Event", "time_s group_index node_id kind")


def make_controller(
    sim,
    *,
    groups=1,
    pool=range(10),
    window=(0.0, 100.0),
    churn=None,
    min_members=1,
    max_members=None,
    protected=None,
    initial=(),
    log=None,
    collectors=None,
):
    """A controller over fresh collectors; applied events go to ``log``."""
    hooks = {}
    if log is not None:
        hooks = dict(
            join_hook=lambda g, n, _: log.append(Event(sim.now, g, n, "join")),
            leave_hook=lambda g, n, _: log.append(Event(sim.now, g, n, "leave")),
        )
    controller = MembershipController(
        sim,
        collectors or {g: DeliveryCollector() for g in range(groups)},
        pool=pool,
        window=window,
        churn=churn,
        min_members=min_members,
        max_members=max_members,
        protected=protected,
        **hooks,
    )
    for group_index, node_id in initial:
        controller.schedule_initial_join(group_index, node_id, 0.0)
    return controller


class TestConfigValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(model="earthquake")

    def test_bad_script_row_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(model="scripted", script=[[1.0, 0, 3, "explode"]])

    def test_window_defaults_to_duration(self):
        assert ChurnConfig().window(65.0) == (0.0, 65.0)
        assert ChurnConfig(start_s=5.0, stop_s=50.0).window(65.0) == (5.0, 50.0)
        assert ChurnConfig(stop_s=500.0).window(65.0) == (0.0, 65.0)

    def test_enabled_flag(self):
        assert not ChurnConfig().enabled
        assert ChurnConfig(model="poisson").enabled

    def test_build_rejects_disabled_model(self):
        with pytest.raises(ValueError):
            build_churn_model(ChurnConfig(), random.Random(1))


class TestController:
    def test_floor_blocks_leaves(self):
        sim = Simulator()
        controller = make_controller(
            sim, min_members=2, initial=[(0, 1), (0, 2)]
        )
        sim.run(until=1.0)
        assert not controller.leave(0, 1)
        assert controller.members(0) == [1, 2]
        assert controller.stats.events_skipped == 1

    def test_ceiling_blocks_joins(self):
        sim = Simulator()
        controller = make_controller(sim, max_members=1, initial=[(0, 1)])
        sim.run(until=1.0)
        assert not controller.join(0, 2)
        assert controller.join_candidates(0) == []

    def test_protected_nodes_never_leave(self):
        sim = Simulator()
        controller = make_controller(
            sim, protected={0: {1}}, initial=[(0, 1), (0, 2), (0, 3)]
        )
        sim.run(until=1.0)
        assert not controller.leave(0, 1)
        assert 1 not in controller.leave_candidates(0)
        assert controller.leave(0, 2)

    def test_protection_is_per_group(self):
        # A node sourcing group 0 may still leave group 1.
        sim = Simulator()
        controller = make_controller(
            sim,
            groups=2,
            protected={0: {1}},
            initial=[(0, 1), (0, 2), (1, 1), (1, 2)],
            min_members=0,
        )
        sim.run(until=1.0)
        assert not controller.leave(0, 1)
        assert controller.leave(1, 1)
        assert 1 not in controller.leave_candidates(0)

    def test_initial_joins_not_counted_as_churn(self):
        sim = Simulator()
        controller = make_controller(sim, initial=[(0, 1), (0, 2)])
        sim.run(until=1.0)
        assert controller.stats.initial_joins == 2
        assert controller.stats.churn_events == 0
        controller.join(0, 3)
        assert controller.stats.churn_events == 1

    def test_initial_join_allowed_outside_pool(self):
        sim = Simulator()
        controller = make_controller(sim, pool=[7, 8], initial=[(0, 1)])
        sim.run(until=1.0)
        assert controller.is_member(0, 1)
        # ... but mid-run churn joins are restricted to the pool.
        assert not controller.join(0, 2)
        assert controller.join(0, 7)

    def test_hooks_fire_on_applied_events_only(self):
        sim = Simulator()
        calls = []
        controller = MembershipController(
            sim,
            {0: DeliveryCollector()},
            pool=[1, 2],
            window=(0.0, 10.0),
            join_hook=lambda g, n, initial: calls.append(("join", n, initial)),
            leave_hook=lambda g, n, initial: calls.append(("leave", n, initial)),
        )
        controller.schedule_initial_join(0, 1, 0.5)
        sim.run(until=1.0)
        controller.join(0, 2)
        controller.join(0, 2)  # duplicate: no hook
        controller.leave(0, 2)
        assert calls == [("join", 1, True), ("join", 2, False), ("leave", 2, False)]


class TestScriptedChurn:
    def test_script_applies_in_order(self):
        sim = Simulator()
        config = ChurnConfig(
            model="scripted",
            script=[[1.0, 0, 3, "join"], [2.0, 0, 4, "join"], [3.0, 0, 3, "leave"]],
        )
        collector = DeliveryCollector()
        controller = make_controller(
            sim, churn=ScriptedChurn(config), collectors={0: collector}
        )
        controller.start()
        sim.run(until=10.0)
        assert controller.members(0) == [4]
        assert collector.intervals_of(3) == [(1.0, 3.0)]
        assert collector.intervals_of(4) == [(2.0, None)]


class TestPoissonChurn:
    def _run(self, seed, rate=30.0):
        """The applied events of one seeded run."""
        sim = Simulator()
        config = ChurnConfig(model="poisson", events_per_minute=rate, min_members=2)
        model = PoissonChurn(config, random.Random(seed))
        events = []
        controller = make_controller(
            sim,
            churn=model,
            min_members=2,
            initial=[(0, n) for n in range(4)],
            window=(0.0, 100.0),
            log=events,
        )
        controller.start()
        sim.run(until=100.0)
        return events

    def test_same_seed_same_event_sequence(self):
        first = self._run(7)
        assert first == self._run(7)
        assert len(first) > 4  # churn actually happened

    def test_different_seeds_differ(self):
        assert self._run(7) != self._run(8)

    def test_floor_respected_throughout(self):
        # Replay the event log: after the initial joins (all at t=0) the
        # group size never drops below the min_members floor.
        size = 0
        for event in self._run(7):
            size += 1 if event.kind == "join" else -1
            if event.time_s > 0.0:
                assert size >= 2


class TestOnOffChurn:
    def test_sessions_alternate(self):
        sim = Simulator()
        config = ChurnConfig(model="onoff", mean_on_s=5.0, mean_off_s=5.0)
        model = OnOffChurn(config, random.Random(3))
        events = []
        controller = make_controller(
            sim, churn=model, pool=[0, 1, 2], window=(0.0, 200.0),
            initial=[(0, 0)], log=events,
        )
        controller.start()
        sim.run(until=200.0)
        # Per node, kinds must strictly alternate join/leave.
        for node in (0, 1, 2):
            kinds = [e.kind for e in events if e.node_id == node]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert len(events) > 10

    def test_initial_members_sampled_on_at_window_start(self):
        # States are read at the churn window start (a sim event), after the
        # scenario's startup joins: an initial member's first session is an
        # *on* session of mean mean_on_s, not an off wait of mean_off_s.
        sim = Simulator()
        config = ChurnConfig(
            model="onoff", start_s=1.0, mean_on_s=2.0, mean_off_s=1e9
        )
        model = OnOffChurn(config, random.Random(5))
        events = []
        controller = make_controller(
            sim, churn=model, pool=[0, 1], window=(1.0, 500.0),
            initial=[(0, 0)], min_members=0, log=events,
        )
        controller.start()
        sim.run(until=500.0)
        leaves = [e for e in events if e.kind == "leave"]
        # The member's short on-session ended; with mean_off_s=1e9 a node
        # misread as "off" would effectively never toggle at all.
        assert leaves and leaves[0].node_id == 0
        assert leaves[0].time_s > 1.0


class TestCorrelatedOnOffChurn:
    def _run(self, *, mean_on=5.0, mean_off=5.0, seed=7):
        """The applied events of one seeded 300 s run."""
        sim = Simulator()
        config = ChurnConfig(
            model="onoff", mean_on_s=mean_on, mean_off_s=mean_off,
            onoff_correlated=True, min_members=0,
        )
        model = OnOffChurn(config, random.Random(seed))
        events = []
        controller = make_controller(
            sim, groups=2, churn=model, pool=[0, 1, 2, 3], window=(0.0, 300.0),
            min_members=0, initial=[(0, 0), (1, 0), (0, 1)], log=events,
        )
        controller.start()
        sim.run(until=300.0)
        return events

    def test_session_end_drops_every_subscription_at_once(self):
        # Node 0 holds both groups; each of its session ends must leave both
        # groups at the same instant, and each session start re-join both.
        events = [e for e in self._run() if e.node_id == 0]
        assert any(e.kind == "leave" for e in events)
        by_time = {}
        for event in events:
            by_time.setdefault((event.time_s, event.kind), []).append(event.group_index)
        for (_, kind), groups in by_time.items():
            # Both groups toggle together, never one without the other.
            assert sorted(groups) == [0, 1]

    def test_only_subscribed_devices_cycle(self):
        # Nodes 2 and 3 hold nothing at the window start: device churn has
        # no home groups for them, so they never join anything.
        assert all(e.node_id in (0, 1) for e in self._run())

    def test_rejoin_returns_to_home_groups(self):
        # Node 1 starts only in group 0: after any number of cycles it only
        # ever re-joins group 0.
        joins = [e for e in self._run() if e.node_id == 1 and e.kind == "join"]
        assert joins
        assert all(e.group_index == 0 for e in joins)

    def test_rejected_leave_never_erodes_home_or_stalls_the_clock(self):
        # Regression: a floor-rejected leave used to leave the node "on",
        # the next toggle overwrote its home set with the un-leavable
        # remainder, and the session cycle stalled forever.  Node 0 holds
        # groups {0, 1}; group 1 sits at a floor of 1 (node 0 is its only
        # member), so its leaves are always rejected while group 0's
        # succeed.
        sim = Simulator()
        config = ChurnConfig(
            model="onoff", mean_on_s=5.0, mean_off_s=5.0,
            onoff_correlated=True, min_members=1,
        )
        model = OnOffChurn(config, random.Random(11))
        events = []
        controller = make_controller(
            sim, groups=2, churn=model, pool=[0, 1], window=(0.0, 300.0),
            min_members=1, initial=[(0, 0), (1, 0), (0, 1)], log=events,
        )
        controller.start()
        sim.run(until=300.0)
        # Group 0 keeps cycling for node 0 throughout the window (no stall).
        node0_group0 = [e for e in events if e.node_id == 0 and e.group_index == 0]
        assert len(node0_group0) > 10
        assert max(e.time_s for e in node0_group0) > 150.0
        # The un-leavable group stays in the home set.
        assert sorted(model._home[0]) == [0, 1]

    def test_ceiling_rejected_rejoin_never_erodes_home(self):
        # Regression: a session-start join rejected by the max_members
        # ceiling used to vanish from the home set at the next session end
        # (home was replaced by the then-current memberships).  Group 1 is
        # capped at 1 member and protected node 1 occupies it permanently,
        # so node 0's re-joins of group 1 are always rejected -- yet group 1
        # must stay in node 0's home set.
        sim = Simulator()
        config = ChurnConfig(
            model="onoff", mean_on_s=4.0, mean_off_s=4.0,
            onoff_correlated=True, min_members=0, max_members=1,
        )
        model = OnOffChurn(config, random.Random(13))
        events = []
        controller = make_controller(
            sim, groups=2, pool=[0], window=(0.0, 200.0), churn=model,
            min_members=0, max_members=1, protected={0: [1], 1: [1]},
            # Node 1 is a protected squatter that keeps group 1 full.
            initial=[(0, 0), (1, 0), (1, 1)], log=events,
        )
        controller.start()
        sim.run(until=200.0)
        leaves = [e for e in events if e.node_id == 0 and e.kind == "leave"]
        assert len(leaves) > 2  # several sessions ended
        assert sorted(model._home[0]) == [0, 1]

    def test_config_roundtrips_through_campaign_serialisation(self):
        from dataclasses import replace

        from repro.campaign.trials import config_from_dict, config_to_dict
        from repro.workload.scenario import ScenarioConfig

        config = ScenarioConfig.quick(
            group_count=2,
            churn_config=ChurnConfig(
                model="onoff", onoff_correlated=True, start_s=4.0
            ),
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.churn_config.onoff_correlated is True
        assert rebuilt == replace(config)


class TestFlashCrowdChurn:
    def test_flash_joins_k_nodes_at_t(self):
        sim = Simulator()
        config = ChurnConfig(model="flash", flash_at_s=5.0, flash_joiners=3)
        model = FlashCrowdChurn(config, random.Random(2))
        events = []
        controller = make_controller(sim, churn=model, pool=range(8), log=events)
        controller.start()
        sim.run(until=6.0)
        assert len(controller.members(0)) == 3
        assert [e.time_s for e in events] == [5.0] * 3

    def test_flash_with_stay_departs_again(self):
        sim = Simulator()
        config = ChurnConfig(
            model="flash", flash_at_s=5.0, flash_joiners=3, flash_stay_s=2.0,
            min_members=0,
        )
        model = FlashCrowdChurn(config, random.Random(2))
        events = []
        controller = make_controller(
            sim, churn=model, pool=range(8), min_members=0, log=events
        )
        controller.start()
        sim.run(until=200.0)
        assert controller.members(0) == []
        assert [e.kind for e in events].count("leave") == 3


class TestBuildChurnModel:
    @pytest.mark.parametrize("model,expected", [
        ("poisson", PoissonChurn),
        ("onoff", OnOffChurn),
        ("flash", FlashCrowdChurn),
        ("scripted", ScriptedChurn),
    ])
    def test_factory_builds_each_model(self, model, expected):
        config = ChurnConfig(model=model, flash_joiners=1)
        assert isinstance(build_churn_model(config, random.Random(1)), expected)
