"""Protocol-variant registry.

Every experiment compares a handful of named protocol *variants* -- plain
MAODV, MAODV + Anonymous Gossip, the flooding baseline, ODMRP and the gossip
ablations.  :data:`KNOWN_VARIANTS` maps each public variant name to a builder
that derives the variant's :class:`~repro.workload.scenario.ScenarioConfig`
from a base config; the CLI and the campaign's trials builder both
resolve variants through this registry so an unknown name fails with the full
list of valid ones.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from repro.workload.scenario import ScenarioConfig

VariantBuilder = Callable[[ScenarioConfig], ScenarioConfig]


def _maodv(base: ScenarioConfig) -> ScenarioConfig:
    return replace(base, protocol="maodv", gossip_enabled=False)


def _gossip(base: ScenarioConfig) -> ScenarioConfig:
    return replace(base, protocol="maodv", gossip_enabled=True)


def _flooding(base: ScenarioConfig) -> ScenarioConfig:
    return replace(base, protocol="flooding", gossip_enabled=False)


def _odmrp(base: ScenarioConfig) -> ScenarioConfig:
    return replace(base, protocol="odmrp", gossip_enabled=False)


def _odmrp_gossip(base: ScenarioConfig) -> ScenarioConfig:
    return replace(base, protocol="odmrp", gossip_enabled=True)


def _gossip_no_locality(base: ScenarioConfig) -> ScenarioConfig:
    return replace(
        base,
        protocol="maodv",
        gossip_enabled=True,
        gossip_config=base.gossip_config.without_locality(),
    )


def _gossip_anonymous_only(base: ScenarioConfig) -> ScenarioConfig:
    return replace(
        base,
        protocol="maodv",
        gossip_enabled=True,
        gossip_config=base.gossip_config.anonymous_only(),
    )


def _gossip_cached_only(base: ScenarioConfig) -> ScenarioConfig:
    return replace(
        base,
        protocol="maodv",
        gossip_enabled=True,
        gossip_config=base.gossip_config.cached_only(),
    )


#: Public registry of every protocol variant an experiment can run.
KNOWN_VARIANTS: Dict[str, VariantBuilder] = {
    "maodv": _maodv,
    "gossip": _gossip,
    "flooding": _flooding,
    "odmrp": _odmrp,
    "odmrp-gossip": _odmrp_gossip,
    "gossip-no-locality": _gossip_no_locality,
    "gossip-anonymous-only": _gossip_anonymous_only,
    "gossip-cached-only": _gossip_cached_only,
}


def variant_names() -> List[str]:
    """The known variant names, sorted for stable help/error texts."""
    return sorted(KNOWN_VARIANTS)


def variant_config(base: ScenarioConfig, variant: str) -> ScenarioConfig:
    """Derive the scenario config of ``variant`` from ``base``.

    Raises :class:`ValueError` naming every known variant when ``variant`` is
    not registered.
    """
    try:
        build = KNOWN_VARIANTS[variant]
    except KeyError:
        known = ", ".join(variant_names())
        raise ValueError(
            f"unknown experiment variant {variant!r}; known variants: {known}"
        ) from None
    return build(base)
