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
    ("fig2", "quick"): "8d6d76871bde81a05d10a363a19595695684b9b2cb005f403d52effbbbaec454",
    ("fig2", "paper"): "1cc9b7b346a74fa6912cd5c2628c65d0a8342c0effa220dce527bfd97e7252a8",
    ("fig3", "quick"): "6d7f3491741730cd667a1630848e2738209f65c435d76f06cabd9c888b2ad700",
    ("fig3", "paper"): "020d55c4a9e701b537efe08d6a9a18c8c6cf7febbacec9008563f6def8dcb571",
    ("fig4", "quick"): "993aaf829891a51fb811fd05edcfe32efe853be9538ca4345c29abde5dcbe2df",
    ("fig4", "paper"): "57dd2a22f32a33b95aaae8268ccc7cd131282639b4ba825e0d960b2b74a68ffa",
    ("fig5", "quick"): "6b6aeddca2a9b510c75b246972e7edb2468c6ffbe42cc76bd98a7dd43a16e6c7",
    ("fig5", "paper"): "e73cf8272cf5ee08ec2c46db94619bd569bc8c9b9868116974560b26969df1e4",
    ("fig6", "quick"): "5bb2c5bb1747489a795e18d37a61ccb836ab62e626e435078cbff0a914736cc0",
    ("fig6", "paper"): "99dfeccba3ccdb50e0d3675b7fd2c47623022638c69d1d7943bd4e42b2c924c2",
    ("fig7", "quick"): "c10ce276dc5446e59a88c1ed2ef91ea9629c9cc5b5809bce19fdc1024bc24f40",
    ("fig7", "paper"): "49b5c2482494663448c94aabffed5a78470dae0534c65f6cad0b1ead4ee46463",
    ("fig8", "quick"): "32a36d146e2383ec38243bc165a4fd4b1c2f6e275f0f3b61c842697e48b0073c",
    ("fig8", "paper"): "0a468945c44672d9650d9d4209504ecbbd7adc8708f1d04298687638a0b2f9bb",
    ("churn", "quick"): "3845a8d8d3828d249482922bf4fb0f33818bc9d2ee034f16b2e0dce57022c7da",
    ("churn", "paper"): "141317d7c17ffd2ce5e192a5c459e337748f953d646df7c6692bf6b02db3c538",
    ("groups", "quick"): "b4b82461ed3a3a65baf278a25f63a029c6542a8208e92b7a9caaefda4d71d0f3",
    ("groups", "paper"): "974c7db85b04ef5c3420f59f6a43a5443eed96efb6813a460c33b80be2233d0d",
    ("mobility", "quick"): "76bb310fd8306fbd28e14efa4bcd858835b2a1e3ba860b0c00cc4825567bb0b6",
    ("mobility", "paper"): "355342bd548df75346959579d3cb8db30cf6823a49b44c15731217cfaef107d8",
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
