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
    ("fig2", "quick"): "2861c2825b5c7e7f98f939530c5242916596415e5469815bac145cfaa95b2d31",
    ("fig2", "paper"): "7983b9fb610f3b1258c21a8fb02d5e7e137de41ef83ea87a45a8b1b1c8d55c5e",
    ("fig3", "quick"): "ccd026b5bb2ef25afd80f4782729e808c443b645aa69be0a90039b3e1505850e",
    ("fig3", "paper"): "f32a77a542341473ea5424e2eae67c3089c5425b3aefb84a285ede8e412a178e",
    ("fig4", "quick"): "105b9b8536fcafba2fb2cb7a09b10e11b8b050c39104769622433e62468358a9",
    ("fig4", "paper"): "416173a4723260752811d86ebb236121c5f93a5a88e2937a6cdcdf9978d298ae",
    ("fig5", "quick"): "b847733cc12dccc32f1bc4eb82c31ccce5ddeea763161f8740cde73de794bb4f",
    ("fig5", "paper"): "d50e2c44167b6d0964123be188d343d42b6b0b087cec68f8b65fa6a33edd6c54",
    ("fig6", "quick"): "efdbc13388d9d1cd06ff568f157b576e1c0e43732390a0e834c74f4a71afa766",
    ("fig6", "paper"): "4f1d9641b866fe45558f4139be59d3140bc53ef76c64be7d3cc5ce0963010767",
    ("fig7", "quick"): "912f81871f98aef13f7221695114f2710416c6f8cc76f46f6a9ea48340d43131",
    ("fig7", "paper"): "3bc9f4fa07382b4a1284f0406d8636d7b0489a9f1ac2aa842961f742c6e546a0",
    ("fig8", "quick"): "b629afcaf8bd52a79cad3df420974a3bb0852f6a23ca307504ade3767e9fc04c",
    ("fig8", "paper"): "43c3580799312a0188e0390692e3cc3110a36aa43d826e1ead8455e10092976e",
    ("churn", "quick"): "ed93a07c8e3e5214b8f440ff1bde7904df762ae9b83869a78ed4b6f347a696cf",
    ("churn", "paper"): "37d97aa38e85a17bb21f157541197f8f7d73ed5890768d1cc210eb3a41f18ff4",
    ("groups", "quick"): "a13d2b107c40476e290dcdf4acb35714f03a4b4511da3bc5de38365d5718d830",
    ("groups", "paper"): "5bcbbf86208e280bc72bf153c2e36b1ee57b5c54d09647c583f911999b6b9ce8",
    ("mobility", "quick"): "338ac434fb12cd9d3ffe758d74714ac20a66dc36d1883f058bb3c798b56f257f",
    ("mobility", "paper"): "d14e53bd484a85b199c8e13cc74f8896f9d5d887ac47e22d8b19f937df0bc575",
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
