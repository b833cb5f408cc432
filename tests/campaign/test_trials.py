"""Tests for the campaign trial model (flattening, seeds, serialisation)."""

import pytest

from repro.campaign.trials import (
    TrialSpec,
    config_from_dict,
    config_to_dict,
    trials_for_spec,
)
from repro.experiments.figures import figure2_range_slow, figure8_goodput
from repro.workload.scenario import ScenarioConfig


class TestTrialsForSpec:
    def test_flattens_x_seed_variant_in_serial_order(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=2, x_values=[55, 75])
        coordinates = [(t.x, t.seed, t.variant) for t in trials]
        assert coordinates == [
            (55.0, 1, "maodv"), (55.0, 1, "gossip"),
            (55.0, 2, "maodv"), (55.0, 2, "gossip"),
            (75.0, 1, "maodv"), (75.0, 1, "gossip"),
            (75.0, 2, "maodv"), (75.0, 2, "gossip"),
        ]

    @pytest.mark.parametrize("kwargs", [
        dict(seeds=0), dict(seeds=-2), dict(seeds=1, x_values=[]),
        dict(seeds=1, variants=()),
    ], ids=["seeds_0", "seeds_negative", "no_x_values", "no_variants"])
    def test_a_sweep_of_no_trials_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            trials_for_spec(figure2_range_slow(), scale="quick", **kwargs)

    def test_trial_configs_carry_variant_and_seed(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        by_variant = {t.variant: t for t in trials}
        assert not by_variant["maodv"].config.gossip_enabled
        assert by_variant["gossip"].config.gossip_enabled
        assert all(t.config.seed == t.seed for t in trials)

    def test_keys_unique_and_stable(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=2, x_values=[55, 75])
        keys = [t.key for t in trials]
        assert len(set(keys)) == len(keys)
        again = trials_for_spec(spec, scale="quick", seeds=2, x_values=[55, 75])
        assert [t.key for t in again] == keys

    def test_int_and_float_x_produce_the_same_key(self):
        spec = figure2_range_slow()
        from_int = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        from_float = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55.0])
        assert [t.key for t in from_int] == [t.key for t in from_float]

    def test_unknown_variant_fails_with_known_list(self):
        spec = figure2_range_slow()
        with pytest.raises(ValueError, match="known variants"):
            trials_for_spec(spec, scale="quick", seeds=1, x_values=[55],
                            variants=("amris",))


class TestFig8Trials:
    def test_one_gossip_trial_per_combination_and_seed(self):
        spec = figure8_goodput()
        trials = trials_for_spec(spec, scale="quick", seeds=2, variants=("gossip",))
        assert len(trials) == 4 * 2
        assert [(t.x, t.seed) for t in trials] == [
            (x, seed) for x in (0, 1, 2, 3) for seed in (1, 2)
        ]
        assert all(t.variant == "gossip" for t in trials)
        assert all(t.config.gossip_enabled for t in trials)

    @pytest.mark.parametrize("scale", ["quick", "paper"])
    def test_x_indexes_the_spec_combinations(self, scale):
        spec = figure8_goodput()
        trials = trials_for_spec(spec, scale=scale, seeds=1, variants=("gossip",))
        assert [t.key for t in trials] == [
            f"fig8|x={float(x)!r}|variant=gossip|seed=1|scale={scale}" for x in range(4)
        ]
        assert [t.config.max_speed_mps for t in trials] == [
            speed for _, speed in spec.combinations
        ]
        ranges = [t.config.transmission_range_m for t in trials]
        assert ranges[0] == ranges[2] < ranges[1] == ranges[3]
        if scale == "paper":
            assert ranges == [range_m for range_m, _ in spec.combinations]


class TestConfigSerialisation:
    def test_round_trip_preserves_every_field(self):
        config = ScenarioConfig.quick(
            seed=7, transmission_range_m=62.5, gossip_enabled=False, protocol="odmrp"
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_through_json(self):
        import json

        config = ScenarioConfig.quick(seed=3)
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config

    def test_round_trip_preserves_mobility_config(self):
        import json

        from repro.mobility.config import MobilityConfig

        config = ScenarioConfig.quick(
            seed=5,
            mobility_config=MobilityConfig(model="rpgm", rpgm_align_multicast=False),
        )
        data = json.loads(json.dumps(config_to_dict(config)))
        rebuilt = config_from_dict(data)
        assert rebuilt == config
        assert isinstance(rebuilt.mobility_config, MobilityConfig)
        assert rebuilt.mobility_config.model == "rpgm"
