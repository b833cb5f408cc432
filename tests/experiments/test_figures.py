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
    ("fig2", "quick"): "6d76f6dd644d6d2b82b5c5190624d94e9cba7e2e811e3765c2b1c2c7b0173abf",
    ("fig2", "paper"): "376b1349baa9ad316fed12c2b53628ea141e47c5b6d7dd6d6163c62c5aac8bb0",
    ("fig3", "quick"): "6c8c973801f54bfbc3fcc7c2f62fbca4a808495d603d4dfd22813ec16ff8895c",
    ("fig3", "paper"): "b544a54b9f01ddb9ce4943c75aed932b43d8210b742956b870c17dca4c29d489",
    ("fig4", "quick"): "556536f6e90219ce257af89c13272b7ddc46089ba47cdebd137e9c797d077eff",
    ("fig4", "paper"): "5f9e177c0bdddcb054970d76ed62068878bb5eb83a7069f053791bcc4d4b8cc5",
    ("fig5", "quick"): "a97b5292d7b666d5d3580f669a97e11787ba4e1a8dee091c82b9dc13bd6ba7fe",
    ("fig5", "paper"): "e2b0c2dba0fb15b7f2d1cd7f68cf685befb4fe7bfda7b90cda501f3cd2322448",
    ("fig6", "quick"): "fc1e686e8e540cc6383680661c7adec50b0e7cd98f66224ba00a68cc8fb14f57",
    ("fig6", "paper"): "06fd78503473323243b2eaa9b7e7d3662595febdcb60744d7655a4772607b881",
    ("fig7", "quick"): "2c073617212dd43952e52b1b59e80be4d9e5431bd806cbbd1696e2fc076c22ee",
    ("fig7", "paper"): "4e8ee74a3969e002ded7773f53202534137c1e2331a49dd4e1df6c18c535af33",
    ("fig8", "quick"): "23b4620cfeebe7109641dddb27f9e7a82a2bd58be31c7983cfc73bf73ccc2a11",
    ("fig8", "paper"): "b519d8c50e6e4ace8097837915cca32bc759808c92a7bfac1603edd08ed4411d",
    ("churn", "quick"): "f2b14b7f9f051db2e8a925ac751fd2626b6daf965103086c853f88edb17f411e",
    ("churn", "paper"): "4c4cc6bef3303eab98a224d40ec69bf779d695ca1350cefbfabc5a01e3c1d9c8",
    ("groups", "quick"): "f8d47d3d7a14d39597c0ded21ba780e4e24d554609355da83a0bf8b5e81fabce",
    ("groups", "paper"): "600e9136b2f2fb5bd8d132372c521f9ca8fd716d140cc2fe0917d5a6c1b38dcb",
    ("mobility", "quick"): "1be3771fe3dcc3038f00342659dd12b7cb79d06356a3a84f75fd25c16cbecab2",
    ("mobility", "paper"): "7d0da3ff4827473d4b13ab8dc2f77d3b9e60d7f3f322d95d67a3dc09c7a62fc1",
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
