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
    ("fig2", "quick"): "23667cadf28547b7c57cdd7165ab814a2da7c5400fd711aafe1acff0d7eae1e5",
    ("fig2", "paper"): "785005ea43f9ecf57d1d9dd7a5c64ae1dbe8cf792875bf42f1ac7f6f5dbe8dcc",
    ("fig3", "quick"): "3b27aa320a2bd024e78ef06e31c15214aa9aabe3070483b45f389f9f15ce38b9",
    ("fig3", "paper"): "75f36667b8534777261d81bd599ff2f87b5954c3f1748ffac5a9b6afe69ac51b",
    ("fig4", "quick"): "e031a24f0592693ec229fc04533d295fd3dc01abfd9a0e6dcd0eecdb4560e853",
    ("fig4", "paper"): "dc57b63bf9da369ddaf7452bec30a4e6ae01fdde8fc76c471ac7f0a8186a0fc6",
    ("fig5", "quick"): "7ccc0cfb13bcee743fff3d6d0f71065a8c1514635173aea1a5d47100be8e7532",
    ("fig5", "paper"): "bef334f83924a69809c32457e7afb1741e78b67d61ca07c68a803162ad843535",
    ("fig6", "quick"): "64a52381bd7979e000b35250ec5a83d4522b78e844c9cda9151fe33e9c2eedc6",
    ("fig6", "paper"): "1ea4184d07aa1f9f49c44219f67796487ff781419f7c167a873ab338ee49f0aa",
    ("fig7", "quick"): "713d67aad3e4a9f831b288b1ff571d70dc2acdbe052ae24a04878a92fba918a5",
    ("fig7", "paper"): "5a50b5cd4df6b3fa3c3e053c38305ec8b8e3c0559460cf55885e71777f23fcf8",
    ("fig8", "quick"): "3f7965d68557cc1161bbfe0339cd98db3c976c0dd8a67902b6641baff5ef0cdb",
    ("fig8", "paper"): "083e348744cc2085722167ff2e821e5e89d14b021fd943160f8c198ed08e66ae",
    ("churn", "quick"): "ef86f59d0ba942db31559a3e0d85bc6d56c3667796ce4cb541587f165e40fcc9",
    ("churn", "paper"): "8948f8e66b432702fc75e7b5b317b020c29345255a07125fa8c3639a773f2665",
    ("groups", "quick"): "610f46e5f622250f7426b85c09c63fe026e8841676f54439b65a633b76377310",
    ("groups", "paper"): "dc3438cbece52524d48c6f502c9d1c5e5dca3609a7d69c641ccf55c5c95afc3b",
    ("mobility", "quick"): "fa06806fa2720c2034a621774e8ce273bf6febb687f37079902f31764a4a1f3b",
    ("mobility", "paper"): "0c2f893563a63a0589c422e4997f8c08b94f9aeccfccee3699225396f20297a4",
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
