"""Trial model: flatten an experiment sweep into independently-runnable trials.

A *campaign* is a flat list of :class:`TrialSpec` records.  Each trial is
self-describing -- it carries the fully materialised
:class:`~repro.workload.scenario.ScenarioConfig` of exactly one simulation
run plus the coordinates (campaign name, x value, variant, seed, scale) that
locate it inside the sweep -- so trials can be executed in any order, on any
worker process, and their results recombined afterwards.

:func:`trials_for_spec` is the one builder: it flattens an
:class:`ExperimentSpec` sweep into its ``x × seed × variant`` trials.  For
Fig. 8 the x values index the spec's (range, speed) combinations and the
one variant is ``gossip``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.figures import ExperimentSpec
from repro.experiments.variants import variant_config
from repro.workload.scenario import NESTED_CONFIG_TYPES, ScenarioConfig


@dataclass
class TrialSpec:
    """One independently-runnable simulation run of a campaign."""

    #: Campaign the trial belongs to (a figure id such as ``"fig2"``).
    campaign: str
    #: Swept x value (for Fig. 8: the index of the (range, speed) combination).
    x: float
    #: Protocol variant name (see :data:`repro.experiments.variants.KNOWN_VARIANTS`).
    variant: str
    #: Replication seed of this trial.
    seed: int
    #: Scale the configs were materialised at (``"quick"``, ``"paper"``, ...).
    scale: str
    #: The fully materialised scenario config (variant applied, seed set).
    config: ScenarioConfig = field(repr=False)

    @property
    def key(self) -> str:
        """Stable identity of the trial inside its campaign's result store.

        ``x`` is normalised to float so e.g. ``--points 55`` and
        ``--points 55.0`` address the same stored trial.
        """
        return (
            f"{self.campaign}|x={float(self.x)!r}|variant={self.variant}"
            f"|seed={self.seed}|scale={self.scale}"
        )


def trials_for_spec(
    spec: ExperimentSpec,
    *,
    scale: str = "quick",
    seeds: Optional[int] = None,
    x_values: Optional[Sequence[float]] = None,
    variants: Sequence[str] = ("maodv", "gossip"),
) -> List[TrialSpec]:
    """Flatten a figure sweep into trials: x, then seed, then variant.

    Raises :class:`ValueError` for a sweep of no trials: fewer than one
    seed, or no x values or variants.
    """
    seeds = seeds if seeds is not None else spec.seeds_for(scale)
    xs = list(x_values) if x_values is not None else list(spec.x_values)
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    if not xs or not variants:
        raise ValueError("a campaign needs at least one x value and one variant")
    trials: List[TrialSpec] = []
    for x in xs:
        for seed in range(1, seeds + 1):
            base = spec.config_for(x, scale=scale, seed=seed)
            for variant in variants:
                trials.append(
                    TrialSpec(
                        campaign=spec.figure,
                        x=x,
                        variant=variant,
                        seed=seed,
                        scale=scale,
                        config=variant_config(base, variant),
                    )
                )
    return trials


# ------------------------------------------------------------- serialisation
def config_to_dict(config: ScenarioConfig) -> Dict[str, object]:
    """Plain-JSON representation of a scenario config (nested dataclasses)."""
    return asdict(config)


#: Stands for every stored value in :data:`_RETIRED_FIELDS`.
_ANY = object()

#: Every field an earlier version stored that :class:`ScenarioConfig` or a
#: nested config no longer has (``a.b`` names field ``b`` of ``a``), with
#: the stored value that runs as this version does.  The five retired
#: protocol configs hold the defaults they had, written out: their values
#: are constants of the router modules now.  So do the retired fields of
#: the mobility, gossip and obs configs: their values are the keyword
#: defaults of the mobility models and constants of ``repro.core.gossip``
#: and ``repro.obs``.
_RETIRED_FIELDS: Dict[str, object] = {
    "area_topology": "flat",
    "gossip_shared_round_rng": False,
    "gossip_config.reply_when_empty": False,
    # Two implementations of one behaviour, proven bit-identical.
    "medium_index": _ANY,
    "fanout_kernel": _ANY,
    "aodv_config.hello_interval_s": 0.6,
    "aodv_config.allowed_hello_loss": 4,
    "aodv_config.active_route_timeout_s": 10.0,
    "aodv_config.rreq_initial_ttl": 8,
    "aodv_config.rreq_ttl_increment": 8,
    "aodv_config.rreq_max_ttl": 32,
    "aodv_config.rreq_retries": 2,
    "aodv_config.route_discovery_timeout_s": 1.0,
    "aodv_config.rreq_id_cache_s": 5.0,
    "aodv_config.packet_buffer_limit": 64,
    "aodv_config.broadcast_jitter_s": 0.01,
    "aodv_config.rreq_size_bytes": 24,
    "aodv_config.rrep_size_bytes": 20,
    "aodv_config.rerr_size_bytes": 20,
    "aodv_config.hello_size_bytes": 12,
    "maodv_config.group_hello_interval_s": 5.0,
    "maodv_config.flood_ttl": 16,
    "maodv_config.reply_wait_s": 0.5,
    "maodv_config.join_retries": 3,
    "maodv_config.repair_retries": 2,
    "maodv_config.repair_wait_s": 0.75,
    "maodv_config.join_request_size_bytes": 28,
    "maodv_config.join_reply_size_bytes": 24,
    "maodv_config.mact_size_bytes": 16,
    "maodv_config.group_hello_size_bytes": 16,
    "maodv_config.nearest_member_update_size_bytes": 12,
    "maodv_config.data_header_bytes": 20,
    "maodv_config.data_cache_size": 4096,
    "maodv_config.nearest_member_infinity": 64,
    "maodv_config.track_nearest_member": True,
    "maodv_config.broadcast_jitter_s": 0.01,
    "maodv_config.leader_handoff": True,
    "maodv_config.handoff_wait_s": 1.0,
    "maodv_config.handoff_fallback_s": 6.0,
    "maodv_config.leader_handoff_size_bytes": 20,
    "flooding_config.flood_ttl": 16,
    # With one broadcast per packet the interval between them is moot.
    "flooding_config.rebroadcast_count": 1,
    "flooding_config.rebroadcast_interval_s": _ANY,
    "flooding_config.broadcast_jitter_s": 0.01,
    "flooding_config.data_cache_size": 4096,
    "flooding_config.data_header_bytes": 20,
    "odmrp_config.join_query_interval_s": 3.0,
    "odmrp_config.forwarding_lifetime_s": 9.0,
    "odmrp_config.flood_ttl": 16,
    "odmrp_config.join_query_size_bytes": 20,
    "odmrp_config.join_reply_size_bytes": 20,
    "odmrp_config.data_header_bytes": 20,
    "odmrp_config.data_cache_size": 4096,
    "odmrp_config.broadcast_jitter_s": 0.01,
    "mac_config.slot_time_s": 20e-6,
    "mac_config.sifs_s": 10e-6,
    "mac_config.difs_s": 50e-6,
    "mac_config.cw_min": 16,
    "mac_config.cw_max": 1024,
    "mac_config.retry_limit": 4,
    "mac_config.ack_timeout_s": 1.5e-3,
    "mac_config.ack_size_bytes": 14,
    "mac_config.queue_limit": 64,
    "mobility_config.gm_step_s": 2.0,
    "mobility_config.gm_alpha": 0.85,
    "mobility_config.gm_mean_speed_mps": None,
    "mobility_config.gm_speed_sigma_mps": None,
    "mobility_config.gm_direction_sigma_rad": 0.4,
    "mobility_config.gm_edge_margin_m": None,
    "mobility_config.rpgm_group_size": 4,
    "mobility_config.rpgm_group_radius_m": 25.0,
    "mobility_config.rpgm_member_speed_mps": None,
    "mobility_config.mh_blocks_x": 4,
    "mobility_config.mh_blocks_y": 4,
    "mobility_config.mh_turn_probability": 0.25,
    "mobility_config.mh_pause_probability": 0.5,
    "gossip_config.member_cache_size": 10,
    "gossip_config.lost_table_size": 200,
    "gossip_config.accept_probability": 0.5,
    "gossip_config.max_gossip_hops": 16,
    "gossip_config.max_messages_per_reply": 10,
    "gossip_config.initial_expected_seq": 1,
    "gossip_config.request_base_size_bytes": 20,
    "gossip_config.request_per_lost_entry_bytes": 6,
    "gossip_config.reply_base_size_bytes": 16,
    "obs_config.sample_interval_s": 1.0,
    "obs_config.flight_recorder_capacity": 4096,
    "obs_config.reservoir_size": 512,
    "obs_config.top_fanout_n": 10,
}

#: The retired configs whose every field is in :data:`_RETIRED_FIELDS`.
_RETIRED_CONFIGS = ("aodv_config", "maodv_config", "flooding_config", "odmrp_config", "mac_config")


def _check_retired(key: str, value: object) -> None:
    """Raise unless stored ``value`` of retired field ``key`` runs as today."""
    if key in _RETIRED_CONFIGS and isinstance(value, Mapping):
        for name, item in value.items():
            _check_retired(f"{key}.{name}", item)
        return
    if key not in _RETIRED_FIELDS:
        raise ValueError(f"stored config key {key!r} names no field of any version")
    expected = _RETIRED_FIELDS[key]
    if expected is not _ANY and value != expected:
        raise ValueError(
            f"stored config key {key!r} = {value!r} is retired; this version runs {expected!r}"
        )


def _current_fields(
    config_type: type, data: Mapping[str, object], prefix: str = ""
) -> Dict[str, object]:
    """The items of ``data`` that ``config_type`` has; checks the rest."""
    known = {spec.name for spec in dataclass_fields(config_type)}
    current = {}
    for name, value in data.items():
        if name in known:
            current[name] = value
        else:
            _check_retired(prefix + name, value)
    return current


def config_from_dict(data: Mapping[str, object]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output.

    A key of a field an older version stored but :class:`ScenarioConfig` or
    one of its nested configs no longer has is dropped when it holds the
    value this version runs (see :data:`_RETIRED_FIELDS`), so configs in
    older stores still rebuild; any other value of it, or a key no version
    had, raises :class:`ValueError` naming the dotted key.  A nested config
    stored as anything but a mapping reaches :class:`ScenarioConfig`, which
    rejects it by field name.
    """
    fields = _current_fields(ScenarioConfig, data)
    for name, config_type in NESTED_CONFIG_TYPES.items():
        value = fields.get(name)
        if isinstance(value, Mapping):
            fields[name] = config_type(**_current_fields(config_type, value, f"{name}."))
    return ScenarioConfig(**fields)
