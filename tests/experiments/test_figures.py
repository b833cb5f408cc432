"""Tests for the per-figure experiment specifications."""

import hashlib
import json

import pytest

from repro.campaign.trials import config_to_dict, trials_for_spec
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


#: sha256 of each figure's title, x label, x values, combinations and every
#: (trial key, config) pair of its default sweep, per scale.  A change to a
#: builder that moves any config, title or x value fails here.
TRIAL_PINS = {
    ("fig2", "quick"): "151a8818557a94e1efb8756116e18fea31dfc065f79fa3d71a821a37a6507c43",
    ("fig2", "paper"): "be5545d60a32db77c8fd4ed83b24d90f30ac9a64429c9d7c2eabc00338fdc10a",
    ("fig3", "quick"): "6cc3141ecf1751b7fe2bcfd8ccb07603e0bad494791c00ea9f73dfb468f7df93",
    ("fig3", "paper"): "312398ebe100913e0ccf73d50937c26e75762fe8954fedc2812d1b85571710ea",
    ("fig4", "quick"): "0e12aa596ffe2f79507807cdf384c8a03b8632c91241c473b88030a50e012a05",
    ("fig4", "paper"): "2944d8039516dff8346ec7f41b0e78be3ebc2cbe500ad3f90cf7c962dcecf0d6",
    ("fig5", "quick"): "b22fee27e019fa0179b9d1899e882da776af4eadb67529e3d4ce40cdc843543e",
    ("fig5", "paper"): "b0d8e4deb2606b5bf0b78291c4f814c9724d4c4bfca232056b27e768258c801c",
    ("fig6", "quick"): "116a6953c8b9dfb91b3161f3d309042c414729933def3b8e2de76df10bfb6973",
    ("fig6", "paper"): "bbdecb602ad1952990738b28068dda0289eab608f5825aeb312716e26664bab9",
    ("fig7", "quick"): "b1781f6aef6ff436eaa4ece58b8a467d0e62572f53cc55ffb237d02b3120707b",
    ("fig7", "paper"): "cc731424b785fec68811f54086cbba31a328273cf1d8554dd2a3ca1d3f626f41",
    ("fig8", "quick"): "c74c592244368bf660083d55d03d9433f6337f0afaa72b0973611a478f275080",
    ("fig8", "paper"): "a99f1fd53f18c5f8906e8e0e6770b84d4110bbad2acfb21d16b9aaedd69cc994",
    ("churn", "quick"): "4f5ca2317b1f5a50300f0c958185dc236aed4a1855e4c324403cf5aa7ae74f48",
    ("churn", "paper"): "286959f6326007d7a4b9e3b1107f4e4d0bf6b5162d0dd43c6e31a09c7061f952",
    ("groups", "quick"): "51f0d87739249255e3c49de23dba484433cf9c435b8ef17cc1711f48679f3d0b",
    ("groups", "paper"): "a1b310fd5d4b196a7df97bf71d92bed8541f1a6c00988eb4e18e651994fd0172",
    ("mobility", "quick"): "92e1096c214e4078f142a7165aef8770d59b1c4ea553b850610cf8378ce6b959",
    ("mobility", "paper"): "40f602b55cf3338bfbff4ef70edf3143af0002b2b08f5791a01fb3dd72c5b110",
}


@pytest.mark.parametrize("figure, scale", sorted(TRIAL_PINS))
def test_every_trial_of_every_figure_is_pinned(figure, scale):
    spec = all_figures()[figure]
    trials = trials_for_spec(spec, scale=scale)
    text = json.dumps(
        [spec.title, spec.x_label, spec.x_values, spec.combinations,
         [(trial.key, config_to_dict(trial.config)) for trial in trials]],
        sort_keys=True,
    )
    assert hashlib.sha256(text.encode()).hexdigest() == TRIAL_PINS[figure, scale]
