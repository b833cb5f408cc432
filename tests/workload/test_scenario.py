"""Tests for the scenario builder and runner (the paper's environment)."""

import pytest

from repro.membership.config import ChurnConfig
from repro.workload.scenario import Scenario, ScenarioConfig, run_scenario


class TestScenarioConfig:
    def test_paper_defaults_match_section_5_1(self):
        config = ScenarioConfig.paper()
        assert config.num_nodes == 40
        assert config.area_width_m == 200.0 and config.area_height_m == 200.0
        assert config.bitrate_bps == 2_000_000.0
        assert config.max_pause_s == 80.0
        assert config.source_start_s == 120.0
        assert config.source_stop_s == 560.0
        assert config.packet_interval_s == 0.2
        assert config.payload_bytes == 64
        assert config.duration_s == 600.0
        assert config.resolved_member_count == 13   # one third of 40
        assert config.expected_packets == 2201

    def test_quick_profile_is_smaller_but_same_protocols(self):
        quick = ScenarioConfig.quick()
        paper = ScenarioConfig.paper()
        assert quick.num_nodes < paper.num_nodes
        assert quick.duration_s < paper.duration_s
        assert quick.gossip_config == paper.gossip_config

    def test_member_count_override(self):
        config = ScenarioConfig.quick(member_count=4)
        assert config.resolved_member_count == 4

    def test_with_gossip_toggle(self):
        config = ScenarioConfig.quick(gossip_enabled=True)
        assert not config.with_gossip(False).gossip_enabled
        assert config.gossip_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_nodes=1)
        with pytest.raises(ValueError):
            ScenarioConfig(protocol="amris")
        with pytest.raises(ValueError):
            ScenarioConfig(member_count=100, num_nodes=10)
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=10.0, source_start_s=120.0)

    @pytest.mark.parametrize("name,value", [
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("source_stop_s", float("nan")),
        ("max_speed_mps", float("nan")),
        ("max_pause_s", float("nan")),
        ("transmission_range_m", float("nan")),
        ("source_start_s", float("nan")),
        ("source_start_s", -1.0),
        ("join_window_s", float("nan")),
        ("join_window_s", -1.0),
        ("payload_bytes", -10),
        ("churn_config", ChurnConfig(model="scripted", script=[[9.0, 1, 0, "join"]])),
        ("packet_interval_s", 0.0),
        ("packet_interval_s", -0.5),
        ("area_width_m", 0.0),
        ("area_height_m", -150.0),
        ("transmission_range_m", 0.0),
        ("bitrate_bps", 0.0),
        ("source_stop_s", 10.0),  # before quick's source_start_s of 15 s
        ("max_speed_mps", -1.0),
        ("min_speed_mps", -0.5),
        ("min_speed_mps", 5.0),  # above quick's max_speed_mps of 0.2 m/s
        ("max_pause_s", -1.0),
        ("mobility_config", None),
        ("churn_config", None),
        ("gossip_config", {"p_anon": 0.5}),
        ("obs_config", None),
    ])
    def test_nonsensical_field_rejected_by_name(self, name, value):
        # Each of these used to hang, run to a meaningless result, or fail
        # part-way through the build.
        with pytest.raises(ValueError, match=name):
            ScenarioConfig.quick(**{name: value})


class TestScenarioBuild:
    def test_build_wires_full_stack(self):
        scenario = Scenario(ScenarioConfig.quick(seed=2)).build()
        config = scenario.config
        assert len(scenario.nodes) == config.num_nodes
        assert len(scenario.aodv) == config.num_nodes
        assert len(scenario.multicast) == config.num_nodes
        assert len(scenario.gossip_by_group[0]) == config.num_nodes
        assert len(scenario.members_by_group[0]) == config.resolved_member_count
        assert scenario.sources_by_group[0][0] in scenario.members_by_group[0]
        assert len(scenario.sinks_by_group[0]) == config.resolved_member_count

    def test_gossip_disabled_builds_no_agents(self):
        scenario = Scenario(ScenarioConfig.quick(seed=2, gossip_enabled=False)).build()
        assert scenario.gossip_by_group[0] == {}

    def test_flooding_protocol_builds_flooding_routers(self):
        from repro.multicast.flooding import FloodingRouter

        scenario = Scenario(
            ScenarioConfig.quick(seed=2, protocol="flooding", gossip_enabled=False)
        ).build()
        assert all(isinstance(r, FloodingRouter) for r in scenario.multicast.values())

    def test_build_is_idempotent(self):
        scenario = Scenario(ScenarioConfig.quick(seed=2))
        scenario.build()
        nodes = scenario.nodes
        scenario.build()
        assert scenario.nodes is nodes


class TestScenarioRun:
    def test_quick_run_produces_results(self):
        result = run_scenario(ScenarioConfig.quick(seed=3))
        assert result.packets_sent == ScenarioConfig.quick().expected_packets
        assert set(result.member_counts) == set(
            Scenario(ScenarioConfig.quick(seed=3)).build().members_by_group[0])
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.events_processed > 0
        assert "mac.enqueued" in result.protocol_stats

    def test_same_seed_reproduces_identical_results(self):
        first = run_scenario(ScenarioConfig.quick(seed=11))
        second = run_scenario(ScenarioConfig.quick(seed=11))
        assert first.member_counts == second.member_counts
        assert first.summary.mean == second.summary.mean
        assert first.events_processed == second.events_processed

    def test_different_seeds_differ(self):
        first = run_scenario(ScenarioConfig.quick(seed=11))
        second = run_scenario(ScenarioConfig.quick(seed=12))
        assert (
            first.member_counts != second.member_counts
            or first.events_processed != second.events_processed
        )

    def test_gossip_never_reduces_delivery(self):
        # With identical mobility (same seed), adding gossip can only add
        # recovered packets on top of what MAODV delivers.
        base = ScenarioConfig.quick(seed=7, transmission_range_m=50.0, max_speed_mps=2.0)
        without = run_scenario(base.with_gossip(False))
        with_gossip = run_scenario(base.with_gossip(True))
        assert with_gossip.summary.mean >= without.summary.mean

    def test_goodput_only_reported_for_gossip_runs(self):
        with_gossip = run_scenario(ScenarioConfig.quick(seed=5))
        without = run_scenario(ScenarioConfig.quick(seed=5, gossip_enabled=False))
        assert with_gossip.goodput_by_member
        assert without.goodput_by_member == {}
        assert without.mean_goodput == 100.0
