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

from repro.core.config import GossipConfig
from repro.experiments.figures import ExperimentSpec
from repro.experiments.variants import variant_config
from repro.membership.config import ChurnConfig
from repro.mobility.config import MobilityConfig
from repro.multicast.config import FloodingConfig, MaodvConfig, OdmrpConfig
from repro.net.config import MacConfig
from repro.obs import ObsConfig
from repro.routing.config import AodvConfig
from repro.workload.scenario import ScenarioConfig


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


_NESTED_CONFIG_TYPES = {
    "mobility_config": MobilityConfig,
    "churn_config": ChurnConfig,
    "gossip_config": GossipConfig,
    "aodv_config": AodvConfig,
    "maodv_config": MaodvConfig,
    "flooding_config": FloodingConfig,
    "odmrp_config": OdmrpConfig,
    "mac_config": MacConfig,
    "obs_config": ObsConfig,
}


def _known_fields(config_type: type, data: Mapping[str, object]) -> Dict[str, object]:
    known = {spec.name for spec in dataclass_fields(config_type)}
    return {name: value for name, value in data.items() if name in known}


def config_from_dict(data: Mapping[str, object]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output.

    Keys of fields an older version stored but :class:`ScenarioConfig` or
    one of its nested configs no longer has are dropped, so configs in
    older stores still rebuild.
    """
    fields = _known_fields(ScenarioConfig, data)
    for name, config_type in _NESTED_CONFIG_TYPES.items():
        value = fields.get(name)
        if isinstance(value, Mapping):
            fields[name] = config_type(**_known_fields(config_type, value))
    return ScenarioConfig(**fields)
