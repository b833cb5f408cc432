"""Tests for the per-figure experiment specifications."""

import pytest

from repro.experiments.figures import (
    all_figures,
    figure2_range_slow,
    figure3_range_fast,
    figure4_speed_low,
    figure5_speed_high,
    figure6_nodes_constant_degree,
    figure7_nodes_constant_range,
    figure8_goodput,
)


class TestSpecCatalogue:
    def test_every_paper_figure_has_a_spec(self):
        figures = all_figures()
        assert set(figures) == {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "churn", "groups", "mobility",
        }

    def test_specs_have_paper_seed_counts(self):
        for spec in all_figures().values():
            assert spec.seeds_for("paper") == 10
            assert spec.seeds_for("quick") == 2


class TestRangeSweeps:
    def test_fig2_paper_scale_matches_paper_parameters(self):
        spec = figure2_range_slow()
        assert spec.x_values == [45, 50, 55, 60, 65, 70, 75, 80, 85]
        config = spec.config_for(75, scale="paper", seed=3)
        assert config.num_nodes == 40
        assert config.max_speed_mps == 0.2
        assert config.transmission_range_m == 75
        assert config.seed == 3
        assert config.duration_s == 600.0

    def test_fig3_uses_higher_speed(self):
        config = figure3_range_fast().config_for(55, scale="paper")
        assert config.max_speed_mps == 2.0
        assert config.transmission_range_m == 55

    def test_quick_scale_shrinks_duration(self):
        quick = figure2_range_slow().config_for(75, scale="quick")
        paper = figure2_range_slow().config_for(75, scale="paper")
        assert quick.duration_s < paper.duration_s
        assert quick.num_nodes < paper.num_nodes

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            figure2_range_slow().config_for(75, scale="huge")


class TestSpeedSweeps:
    def test_fig4_sweeps_low_speeds(self):
        spec = figure4_speed_low()
        assert spec.x_values == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        config = spec.config_for(0.3, scale="paper")
        assert config.max_speed_mps == 0.3
        assert config.transmission_range_m == 75.0

    def test_fig5_sweeps_high_speeds(self):
        spec = figure5_speed_high()
        assert spec.x_values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        config = spec.config_for(10, scale="paper")
        assert config.max_speed_mps == 10


class TestNodeCountSweeps:
    def test_fig6_keeps_average_degree_constant(self):
        spec = figure6_nodes_constant_degree()
        reference = spec.config_for(40, scale="paper")
        denser = spec.config_for(90, scale="paper")
        assert reference.transmission_range_m == pytest.approx(75.0)
        assert denser.transmission_range_m < reference.transmission_range_m
        # Expected neighbour count ~ n * r^2 stays constant.
        k_ref = 40 * reference.transmission_range_m**2
        k_dense = 90 * denser.transmission_range_m**2
        assert k_dense == pytest.approx(k_ref, rel=1e-6)

    def test_fig7_keeps_range_constant(self):
        spec = figure7_nodes_constant_range()
        for nodes in (40, 70, 100):
            config = spec.config_for(nodes, scale="paper")
            assert config.transmission_range_m == 55.0
            assert config.num_nodes == nodes

    def test_quick_scale_scales_node_count_down(self):
        config = figure7_nodes_constant_range().config_for(100, scale="quick")
        assert config.num_nodes < 40
        assert config.member_count == config.num_nodes // 3


class TestGoodputSpec:
    def test_fig8_covers_four_combinations(self):
        spec = figure8_goodput()
        assert spec.x_values == [0, 1, 2, 3]
        assert spec.combinations == [(45.0, 0.2), (75.0, 0.2), (45.0, 2.0), (75.0, 2.0)]
        config = spec.config_for(3, scale="paper")
        assert config.transmission_range_m == 75.0
        assert config.max_speed_mps == 2.0


class TestMembershipSweeps:
    def test_churn_sweep_builds_poisson_configs(self):
        from repro.experiments.figures import churn_rate_sweep

        spec = churn_rate_sweep()
        assert spec.x_values[0] == 0.0
        static = spec.config_for(0.0, scale="quick")
        assert not static.churn_config.enabled
        churny = spec.config_for(6.0, scale="paper", seed=4)
        assert churny.churn_config.model == "poisson"
        assert churny.churn_config.events_per_minute == 6.0
        assert churny.seed == 4
        # Churn runs inside the source window, after the initial joins.
        assert churny.churn_config.start_s < churny.source_stop_s
        assert churny.churn_config.stop_s <= churny.source_stop_s

    def test_group_sweep_builds_multi_group_configs(self):
        from repro.experiments.figures import group_count_sweep

        spec = group_count_sweep()
        assert spec.x_values == [1, 2, 3, 4]
        single = spec.config_for(1, scale="quick")
        assert single.group_count == 1
        multi = spec.config_for(3, scale="paper")
        assert multi.group_count == 3
        assert multi.member_count == 10
