"""Churn-free runs join through the controller, like churn runs do.

Every run's initial members join through the
:class:`~repro.membership.controller.MembershipController`, which opens one
subscription interval per member at its drawn join time.  So a member is
charged only for packets sent while it was subscribed, churn or not, and a
member that joins after the sources start is not charged for what they sent
before.
"""

import pytest

from repro.membership.config import ChurnConfig
from repro.obs import ObsConfig
from repro.sim.random import RandomStreams
from repro.workload.scenario import Scenario, ScenarioConfig

_TIMING = dict(
    join_window_s=3.0,
    source_start_s=8.0,
    source_stop_s=20.0,
    packet_interval_s=0.5,
    duration_s=24.0,
)


def _config(**overrides):
    return ScenarioConfig.quick(**{**_TIMING, **overrides})


def _drawn_join_times(scenario):
    """(group, member) -> join time, drawn as the build draws them."""
    rng = RandomStreams(scenario.config.seed).get("joins")
    return {
        (group_index, member): rng.uniform(0.0, scenario.config.join_window_s)
        for group_index in range(scenario.config.group_count)
        for member in scenario.members_by_group[group_index]
    }


@pytest.mark.parametrize(
    "overrides",
    [
        dict(seed=61),
        dict(seed=62, group_count=2, member_count=4),
        dict(seed=63, shards=2, shard_mode="sequential"),
    ],
    ids=["one-group", "two-groups", "two-shards-sequential"],
)
def test_one_open_interval_per_initial_member(overrides):
    scenario = Scenario(_config(**overrides))
    scenario.run()
    joined_at = _drawn_join_times(scenario)
    for group_index, collector in scenario.collectors.items():
        members = scenario.members_by_group[group_index]
        assert scenario.controller.members(group_index) == members
        assert collector.members == members
        for member in members:
            assert collector.intervals_of(member) == [
                (joined_at[group_index, member], None)
            ]
    assert scenario.controller.stats.initial_joins == len(joined_at)


def test_member_not_charged_for_packets_sent_before_its_join():
    # Joins drawn over [0, 10 s) while the source starts at 4 s: some
    # members join after the first packets went out.
    config = _config(
        seed=64, join_window_s=10.0, source_start_s=4.0, source_stop_s=16.0,
        duration_s=20.0,
    )
    scenario = Scenario(config)
    result = scenario.run()
    collector = scenario.collectors[0]
    sent_at = collector._sent_at
    joined_at = _drawn_join_times(scenario)
    late = [m for m in collector.members if joined_at[0, m] > config.source_start_s]
    assert late, "the seed must draw a join after the source starts"
    ratios = []
    for member in collector.members:
        expected = {mid for mid, at in sent_at.items() if at >= joined_at[0, member]}
        assert collector.expected_for(member) == expected
        record = collector.member_record(member)
        count = sum(map(record.has, expected))
        assert result.member_counts[member] == count
        ratios.append(count / len(expected))
    for member in late:
        assert len(collector.expected_for(member)) < collector.packets_sent
    assert result.summary.ratio_members == len(ratios)
    assert result.delivery_ratio == pytest.approx(sum(ratios) / len(ratios))


def test_membership_counters_only_with_churn():
    # The pinned digests hash protocol_stats, which predate the controller
    # in churn-free runs.
    static = Scenario(_config(seed=65)).run()
    assert not [name for name in static.protocol_stats if name.startswith("membership.")]
    churn = ChurnConfig(model="poisson", events_per_minute=30.0, start_s=5.0, min_members=2)
    churny = Scenario(_config(seed=65, churn_config=churn)).run()
    initial_joins = churny.protocol_stats["membership.initial_joins"]
    assert initial_joins == churny.config.resolved_member_count


def test_instrumented_run_records_each_initial_join():
    scenario = Scenario(_config(seed=66, obs_config=ObsConfig(enabled=True)))
    scenario.run()
    joins = [
        (event["node"], event["initial"])
        for event in scenario.obs.recorder.events()
        if event["kind"] == "membership.join"
    ]
    assert sorted(joins) == [(member, True) for member in scenario.members_by_group[0]]
