"""The settable config surface: every field a caller can set, by name.

A field counts when it is an init field of :class:`ScenarioConfig` or
:class:`RadioConfig`; a nested config (a field whose default factory is a
dataclass) counts once itself and once per init field of its own, the rule
CI's "Line counts" step prints the total with.  Adding, renaming or
deleting a knob means editing the lists below.
"""

import dataclasses

from repro.net.config import RadioConfig
from repro.workload.scenario import ScenarioConfig

SURFACE = {
    ScenarioConfig: [
        "num_nodes",
        "area_width_m",
        "area_height_m",
        "transmission_range_m",
        "bitrate_bps",
        "min_speed_mps",
        "max_speed_mps",
        "max_pause_s",
        "mobility_config",
        "mobility_config.model",
        "mobility_config.rpgm_align_multicast",
        "member_count",
        "join_window_s",
        "source_start_s",
        "source_stop_s",
        "packet_interval_s",
        "payload_bytes",
        "duration_s",
        "group_count",
        "sources_per_group",
        "churn_config",
        "churn_config.model",
        "churn_config.start_s",
        "churn_config.stop_s",
        "churn_config.events_per_minute",
        "churn_config.mean_on_s",
        "churn_config.mean_off_s",
        "churn_config.onoff_correlated",
        "churn_config.flash_at_s",
        "churn_config.flash_joiners",
        "churn_config.flash_stay_s",
        "churn_config.script",
        "churn_config.min_members",
        "churn_config.max_members",
        "churn_config.pool",
        "protocol",
        "gossip_enabled",
        "gossip_config",
        "gossip_config.gossip_interval_s",
        "gossip_config.lost_buffer_size",
        "gossip_config.history_size",
        "gossip_config.p_anon",
        "gossip_config.enable_locality",
        "gossip_config.enable_cached_gossip",
        "obs_config",
        "obs_config.enabled",
        "obs_config.dump_on_error_path",
        "shards",
        "shard_mode",
        "shard_window_s",
        "seed",
    ],
    RadioConfig: [
        "transmission_range_m",
        "bitrate_bps",
        "preamble_s",
        "speed_bound_mps",
        "shards",
    ],
}


def settable_fields(config_type, prefix=""):
    """Dotted names of ``config_type``'s init fields, nested configs included."""
    names = []
    for spec in dataclasses.fields(config_type):
        if spec.init:
            names.append(prefix + spec.name)
            if dataclasses.is_dataclass(spec.default_factory):
                names += settable_fields(spec.default_factory, f"{prefix}{spec.name}.")
    return names


def test_settable_fields_are_the_committed_list():
    for config_type, names in SURFACE.items():
        assert settable_fields(config_type) == names, config_type.__name__
    assert sum(len(names) for names in SURFACE.values()) == 56
