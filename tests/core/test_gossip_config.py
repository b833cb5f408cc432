"""Unit tests for the gossip configuration and its variant constructors."""

import pytest

from repro.core.config import GossipConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = GossipConfig()
        assert config.gossip_interval_s == 1.0
        assert config.lost_buffer_size == 10
        assert config.history_size == 100

    def test_variants_do_not_mutate_original(self):
        config = GossipConfig()
        config.anonymous_only()
        config.cached_only()
        config.without_locality()
        assert config.enable_cached_gossip
        assert config.enable_locality
        assert config.p_anon == 0.7

    def test_anonymous_only_variant(self):
        variant = GossipConfig().anonymous_only()
        assert not variant.enable_cached_gossip
        assert variant.p_anon == 1.0

    def test_cached_only_variant(self):
        variant = GossipConfig().cached_only()
        assert variant.enable_cached_gossip
        assert variant.p_anon == 0.0

    def test_without_locality_variant(self):
        assert not GossipConfig().without_locality().enable_locality


class TestValidation:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            GossipConfig(gossip_interval_s=0.0)

    def test_invalid_p_anon(self):
        with pytest.raises(ValueError):
            GossipConfig(p_anon=1.5)
        with pytest.raises(ValueError):
            GossipConfig(p_anon=-0.1)

    @pytest.mark.parametrize(
        "field",
        ["lost_buffer_size", "history_size"],
    )
    def test_positive_integer_fields_validated(self, field):
        with pytest.raises(ValueError):
            GossipConfig(**{field: 0})
