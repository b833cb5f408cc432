"""Tests for protocol variants and the sweep pipeline (execution and aggregation)."""

import pytest

from repro.campaign import aggregate_experiment, aggregate_goodput, run_campaign, trials_for_spec
from repro.experiments.figures import GOODPUT_COMBINATIONS, figure2_range_slow, figure8_goodput
from repro.experiments.variants import KNOWN_VARIANTS, variant_config, variant_names
from repro.workload.scenario import ScenarioConfig


def run_sweep(spec, **kwargs):
    """``trials_for_spec`` -> ``run_campaign`` -> ``aggregate_experiment``."""
    return aggregate_experiment(spec, run_campaign(trials_for_spec(spec, **kwargs)))


class TestVariantConfigs:
    def test_maodv_variant_disables_gossip(self):
        base = ScenarioConfig.quick()
        config = variant_config(base, "maodv")
        assert not config.gossip_enabled
        assert config.protocol == "maodv"

    def test_gossip_variant_enables_gossip(self):
        config = variant_config(ScenarioConfig.quick(), "gossip")
        assert config.gossip_enabled

    def test_flooding_variant(self):
        config = variant_config(ScenarioConfig.quick(), "flooding")
        assert config.protocol == "flooding"
        assert not config.gossip_enabled

    def test_ablation_variants(self):
        base = ScenarioConfig.quick()
        no_locality = variant_config(base, "gossip-no-locality")
        assert not no_locality.gossip_config.enable_locality
        anonymous = variant_config(base, "gossip-anonymous-only")
        assert anonymous.gossip_config.p_anon == 1.0
        cached = variant_config(base, "gossip-cached-only")
        assert cached.gossip_config.p_anon == 0.0

    def test_odmrp_variants(self):
        plain = variant_config(ScenarioConfig.quick(), "odmrp")
        assert plain.protocol == "odmrp" and not plain.gossip_enabled
        with_gossip = variant_config(ScenarioConfig.quick(), "odmrp-gossip")
        assert with_gossip.protocol == "odmrp" and with_gossip.gossip_enabled

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config(ScenarioConfig.quick(), "amris")


class TestVariantRegistry:
    def test_registry_names_match_variant_names(self):
        assert variant_names() == sorted(KNOWN_VARIANTS)
        assert {"maodv", "gossip", "flooding", "odmrp"} <= set(KNOWN_VARIANTS)

    def test_unknown_variant_error_lists_known_variants(self):
        with pytest.raises(ValueError) as excinfo:
            variant_config(ScenarioConfig.quick(), "amris")
        message = str(excinfo.value)
        for name in variant_names():
            assert name in message

    def test_every_registered_variant_builds_a_config(self):
        base = ScenarioConfig.quick()
        for name in KNOWN_VARIANTS:
            config = variant_config(base, name)
            assert config.protocol in ("maodv", "flooding", "odmrp")

    def test_runner_alias_delegates_to_registry(self):
        base = ScenarioConfig.quick()
        assert variant_config(base, "gossip") == variant_config(base, "gossip")


class TestSweepPipeline:
    def test_small_sweep_produces_points_for_each_variant(self):
        spec = figure2_range_slow()
        result = run_sweep(spec, scale="quick", seeds=1, x_values=[55, 75])
        assert result.spec_figure == "fig2"
        assert {point.variant for point in result.points} == {"gossip", "maodv"}
        assert len(result.points) == 4
        for point in result.points:
            assert point.runs == 1
            assert point.packets_sent > 0
            assert 0 <= point.minimum <= point.mean <= point.maximum

    @pytest.mark.parametrize("x", [1, 2, 3])  # gauss_markov, rpgm, manhattan
    def test_mobility_sweep_points_are_seed_deterministic(self, x):
        """Same seed => bit-identical ExperimentPoint for every new model."""
        from repro.experiments.figures import MOBILITY_SWEEP_MODELS, mobility_model_sweep

        spec = mobility_model_sweep()
        first = run_sweep(
            spec, scale="quick", seeds=1, x_values=[x], variants=("gossip",)
        )
        second = run_sweep(
            spec, scale="quick", seeds=1, x_values=[x], variants=("gossip",)
        )
        assert first.points == second.points
        assert len(first.points) == 1
        assert first.points[0].packets_sent > 0
        # The spec materialises the model the x value names.
        config = spec.config_for(x, scale="quick")
        assert config.mobility_config.model == MOBILITY_SWEEP_MODELS[x]

    def test_points_for_orders_by_x(self):
        spec = figure2_range_slow()
        result = run_sweep(spec, scale="quick", seeds=1, x_values=[75, 55])
        xs = [point.x for point in result.points_for("maodv")]
        assert xs == [55, 75]

    def test_table_rendering_contains_all_points(self):
        spec = figure2_range_slow()
        result = run_sweep(spec, scale="quick", seeds=1, x_values=[60])
        table = result.to_table()
        assert spec.title in table
        assert "maodv" in table and "gossip" in table

    def test_gossip_variant_not_worse_than_maodv(self):
        spec = figure2_range_slow()
        result = run_sweep(spec, scale="quick", seeds=2, x_values=[55])
        maodv = result.points_for("maodv")[0]
        gossip = result.points_for("gossip")[0]
        assert gossip.mean >= maodv.mean


class TestGoodputExperiment:
    def test_goodput_reported_per_member(self):
        spec = figure8_goodput()
        trials = trials_for_spec(spec, scale="quick", seeds=1, variants=("gossip",))
        results = aggregate_goodput(spec, run_campaign(trials))
        assert set(results) == {(45.0, 0.2), (75.0, 0.2), (45.0, 2.0), (75.0, 2.0)}
        for per_member in results.values():
            assert per_member, "every combination reports at least one member"
            for goodput in per_member.values():
                assert 0.0 <= goodput <= 100.0

    def test_combinations_is_an_explicit_spec_field(self):
        spec = figure8_goodput()
        assert spec.combinations == GOODPUT_COMBINATIONS
        assert figure2_range_slow().combinations is None
