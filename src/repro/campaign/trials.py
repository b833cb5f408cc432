"""Trial model: flatten experiment sweeps into independently-runnable trials.

A *campaign* is a flat list of :class:`TrialSpec` records.  Each trial is
self-describing -- it carries the fully materialised
:class:`~repro.workload.scenario.ScenarioConfig` of exactly one simulation
run plus the coordinates (campaign name, x value, variant, seed, scale) that
locate it inside the sweep -- so trials can be executed in any order, on any
worker process, and their results recombined afterwards.

Three builders cover the common shapes:

* :func:`trials_for_spec` flattens an :class:`ExperimentSpec` figure sweep
  (the ``x × seed × variant`` loops of the serial runner) in the exact order
  the serial runner visits them, so aggregates are bit-identical.
* :func:`trials_for_goodput` flattens the Fig. 8 goodput experiment.
* :func:`trials_for_grid` builds an ad-hoc cartesian sweep over arbitrary
  :class:`ScenarioConfig` fields with deterministic per-trial seeds derived
  from the campaign name and grid coordinates (see :func:`derive_seed`).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.config import GossipConfig
from repro.experiments.figures import GOODPUT_COMBINATIONS, ExperimentSpec
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

    #: Campaign the trial belongs to (a figure id such as ``"fig2"`` or an
    #: ad-hoc grid name).
    campaign: str
    #: Swept x value (for grids: the index of the grid point).
    x: float
    #: Protocol variant name (see :data:`repro.experiments.variants.KNOWN_VARIANTS`).
    variant: str
    #: Replication seed of this trial.
    seed: int
    #: Scale the configs were materialised at (``"quick"``, ``"paper"``, ...).
    scale: str
    #: The fully materialised scenario config (variant applied, seed set).
    config: ScenarioConfig = field(repr=False)
    #: For grid campaigns: the config overrides of this grid point.
    params: Dict[str, object] = field(default_factory=dict)

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


def derive_seed(campaign: str, point: str, replicate: int) -> int:
    """Deterministic positive seed for replicate ``replicate`` of a grid point.

    Stable across processes and Python versions (CRC32, not ``hash``), and
    decorrelated between campaigns and grid points so ad-hoc sweeps do not
    accidentally reuse mobility patterns across points.
    """
    digest = zlib.crc32(f"{campaign}|{point}|{replicate}".encode("utf-8"))
    return (digest % (2**31 - 1)) + 1


def trials_for_spec(
    spec: ExperimentSpec,
    *,
    scale: str = "quick",
    seeds: Optional[int] = None,
    x_values: Optional[Sequence[float]] = None,
    variants: Sequence[str] = ("maodv", "gossip"),
) -> List[TrialSpec]:
    """Flatten a figure sweep into trials, in serial-runner visit order."""
    seeds = seeds if seeds is not None else spec.seeds_for(scale)
    xs = list(x_values) if x_values is not None else list(spec.x_values)
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


def trials_for_goodput(
    spec: ExperimentSpec,
    *,
    scale: str = "quick",
    seeds: Optional[int] = None,
    variant: str = "gossip",
) -> List[TrialSpec]:
    """Flatten the Fig. 8 goodput experiment into trials."""
    seeds = seeds if seeds is not None else spec.seeds_for(scale)
    combinations = spec.combinations if spec.combinations is not None else GOODPUT_COMBINATIONS
    trials: List[TrialSpec] = []
    for index, (range_m, speed) in enumerate(combinations):
        for seed in range(1, seeds + 1):
            base = spec.config_for(index, scale=scale, seed=seed)
            trials.append(
                TrialSpec(
                    campaign=spec.figure,
                    x=index,
                    variant=variant,
                    seed=seed,
                    scale=scale,
                    config=variant_config(base, variant),
                    params={"range_m": range_m, "speed_mps": speed},
                )
            )
    return trials


def trials_for_grid(
    name: str,
    base: ScenarioConfig,
    grid: Mapping[str, Sequence[object]],
    *,
    variants: Sequence[str] = ("maodv", "gossip"),
    replicates: int = 1,
    scale: str = "custom",
) -> List[TrialSpec]:
    """Cartesian sweep over arbitrary :class:`ScenarioConfig` fields.

    ``grid`` maps config field names (e.g. ``"transmission_range_m"``,
    ``"max_speed_mps"``, ``"num_nodes"``) to the values to sweep.  Every grid
    point runs ``replicates`` trials per variant, each with a deterministic
    seed derived from the campaign name and the point's coordinates.
    """
    names = sorted(grid)
    trials: List[TrialSpec] = []
    for index, values in enumerate(itertools.product(*(grid[n] for n in names))):
        overrides = dict(zip(names, values))
        point = ",".join(f"{n}={v!r}" for n, v in sorted(overrides.items()))
        for replicate in range(1, replicates + 1):
            seed = derive_seed(name, point, replicate)
            base_config = replace(base, seed=seed, **overrides)
            for variant in variants:
                trials.append(
                    TrialSpec(
                        campaign=name,
                        x=float(index),
                        variant=variant,
                        seed=seed,
                        scale=scale,
                        config=variant_config(base_config, variant),
                        params={**overrides, "replicate": replicate},
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


def config_from_dict(data: Mapping[str, object]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output."""
    fields: Dict[str, object] = dict(data)
    for name, config_type in _NESTED_CONFIG_TYPES.items():
        value = fields.get(name)
        if isinstance(value, Mapping):
            fields[name] = config_type(**value)
    return ScenarioConfig(**fields)
