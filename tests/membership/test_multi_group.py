"""Multi-group scenarios: G groups sharing one protocol stack."""

import pytest

from repro.membership.config import ChurnConfig
from repro.membership.summary import combine_summaries, group_metrics
from repro.metrics.collectors import DeliverySummary
from repro.workload.scenario import Scenario, ScenarioConfig

_TIMING = dict(
    join_window_s=3.0,
    source_start_s=8.0,
    source_stop_s=20.0,
    packet_interval_s=0.5,
    duration_s=24.0,
)


def _config(**overrides):
    params = dict(_TIMING)
    params.update(overrides)
    return ScenarioConfig.quick(**params)


class TestConfigValidation:
    def test_group_count_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioConfig.quick(group_count=0)

    def test_sources_per_group_bounded_by_members(self):
        with pytest.raises(ValueError):
            ScenarioConfig.quick(member_count=4, sources_per_group=5)


class TestBuild:
    def test_each_group_gets_members_sources_and_collector(self):
        scenario = Scenario(_config(group_count=3, member_count=4, seed=41)).build()
        assert len(scenario.groups) == 3
        assert len(set(scenario.groups)) == 3
        for group_index in range(3):
            assert len(scenario.members_by_group[group_index]) == 4
            sources = scenario.sources_by_group[group_index]
            assert len(sources) == 1
            assert sources[0] in scenario.members_by_group[group_index]
            assert len(scenario.sinks_by_group[group_index]) == 4

    def test_gossip_agents_exist_per_node_per_group(self):
        config = _config(group_count=2, member_count=4, seed=41)
        scenario = Scenario(config).build()
        for group_index in range(2):
            assert len(scenario.gossip_by_group[group_index]) == config.num_nodes
        # One dispatcher per node demuxes both groups' agents.
        node = scenario.nodes[0]
        for group_index, group in enumerate(scenario.groups):
            agent = node.gossip_dispatcher.agent_for(group)
            assert agent is scenario.gossip_by_group[group_index][0]

    def test_multiple_sources_per_group(self):
        scenario = Scenario(
            _config(member_count=5, sources_per_group=2, seed=43)
        ).build()
        sources = scenario.sources_by_group[0]
        assert len(sources) == 2
        assert all(s in scenario.members_by_group[0] for s in sources)
        assert len(scenario.sources) == 2

    def test_group_zero_build_matches_single_group_build(self):
        # Adding groups must not disturb group 0's member/source draws.
        single = Scenario(_config(group_count=1, member_count=4, seed=47)).build()
        multi = Scenario(_config(group_count=3, member_count=4, seed=47)).build()
        assert multi.members_by_group[0] == single.members_by_group[0]
        assert multi.sources_by_group[0] == single.sources_by_group[0]


class TestRun:
    def test_two_group_run_produces_per_group_results(self):
        result = Scenario(_config(group_count=2, member_count=4, seed=49)).run()
        assert set(result.group_summaries) == {0, 1}
        for summary in result.group_summaries.values():
            assert summary.packets_sent > 0
        expected_per_source = _config().expected_packets
        assert result.packets_sent == 2 * expected_per_source
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert set(result.goodput_by_group) == {0, 1}

    def test_mean_goodput_averages_every_group_member(self):
        result = Scenario(ScenarioConfig.quick(group_count=2, seed=3)).run()
        values = [
            value for goodput in result.goodput_by_group.values() for value in goodput.values()
        ]
        assert result.goodput_by_group[1]
        assert result.mean_goodput == pytest.approx(sum(values) / len(values))
        group_zero = result.goodput_by_group[0]
        assert result.mean_goodput != pytest.approx(
            sum(group_zero.values()) / len(group_zero)
        )

    def test_two_group_run_is_reproducible(self):
        first = Scenario(_config(group_count=2, member_count=4, seed=51)).run()
        second = Scenario(_config(group_count=2, member_count=4, seed=51)).run()
        assert first.events_processed == second.events_processed
        assert first.member_counts == second.member_counts
        for group_index in (0, 1):
            assert (
                first.group_summaries[group_index].member_counts
                == second.group_summaries[group_index].member_counts
            )

    def test_groups_with_churn_compose(self):
        churn = ChurnConfig(
            model="poisson", events_per_minute=20.0, start_s=4.0, min_members=2
        )
        result = Scenario(
            _config(group_count=2, member_count=4, churn_config=churn, seed=53)
        ).run()
        assert result.membership_events > 0
        assert set(result.group_summaries) == {0, 1}


class TestCombineSummaries:
    def _summary(self, sent, counts, ratio):
        values = list(counts.values())
        mean = sum(values) / len(values)
        return DeliverySummary(
            packets_sent=sent, member_counts=counts, mean=mean,
            minimum=min(values), maximum=max(values), std=0.0,
            delivery_ratio=ratio, ratio_members=len(counts),
        )

    def test_single_group_passthrough(self):
        summary = self._summary(10, {1: 9, 2: 7}, 0.8)
        assert combine_summaries({0: summary}) is summary

    def test_merge_averages_instances(self):
        a = self._summary(10, {1: 10, 2: 6}, 0.8)
        b = self._summary(20, {2: 20, 3: 10}, 0.75)
        merged = combine_summaries({0: a, 1: b})
        assert merged.packets_sent == 30
        # Node 2 is in both groups: counts add up in the merged view.
        assert merged.member_counts == {1: 10, 2: 26, 3: 10}
        assert merged.mean == pytest.approx((10 + 6 + 20 + 10) / 4)
        assert merged.minimum == 6 and merged.maximum == 20
        # Ratio is the member-weighted mean of the per-group ratios.
        assert merged.delivery_ratio == pytest.approx((0.8 * 2 + 0.75 * 2) / 4)
        assert merged.ratio_members == 4

    def test_empty_input(self):
        assert combine_summaries({}).packets_sent == 0

    def test_group_metrics_shape(self):
        metrics = group_metrics({0: self._summary(10, {1: 9}, 0.9)})
        assert metrics["0"]["packets_sent"] == 10.0
        assert metrics["0"]["members"] == 1.0
        assert metrics["0"]["delivery_ratio"] == 0.9
