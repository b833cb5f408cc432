"""Mobility-model selection and fleet construction.

:class:`MobilityConfig` selects which mobility model a scenario's fleet
uses; :func:`build_fleet` materialises one
:class:`~repro.mobility.base.MobilityModel` per node from a scenario's
named random streams, so a seed fully determines every trajectory
regardless of model.  The shared speed envelope (``min_speed_mps`` /
``max_speed_mps`` / ``max_pause_s``) stays on the scenario config -- the
paper sweeps it -- and is all :func:`build_fleet` passes on: every other
model parameter is the keyword default of the model's class, its one
definition.  Each model interprets the envelope in its own terms:

``"random_waypoint"``
    The paper's model (travel to a uniform waypoint, pause, repeat).  The
    default, and byte-for-byte the construction the scenario always used.
``"gauss_markov"``
    Smooth autoregressive speed/direction evolution -- no waypoint sharp
    turns, memory set by the ``alpha`` of
    :class:`~repro.mobility.gauss_markov.GaussMarkovMobility`.
``"rpgm"``
    Reference-point group mobility: groups move together (optionally
    aligned with the multicast member sets -- the natural MANET-multicast
    workload), members jitter around the group reference at up to half
    the scenario's max speed.
``"manhattan"``
    Street-grid motion with probabilistic turns and intersection pauses
    (a city / vehicular workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mobility.base import MobilityModel, RectangularArea
from repro.mobility.random_waypoint import RandomWaypointMobility

#: Models :func:`build_fleet` knows how to build.
MOBILITY_MODELS = ("random_waypoint", "gauss_markov", "rpgm", "manhattan")

#: RPGM: nodes per mobility group (used for nodes not covered by the
#: multicast alignment, and for everything when it is off).
RPGM_GROUP_SIZE = 4


@dataclass
class MobilityConfig:
    """Which mobility model a scenario's fleet uses."""

    #: One of :data:`MOBILITY_MODELS`.
    model: str = "random_waypoint"
    #: RPGM: put each multicast group's members into one mobility group
    #: (the members travel together); non-members are chunked by node id.
    rpgm_align_multicast: bool = True

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r}; known models: "
                + ", ".join(MOBILITY_MODELS)
            )


def fleet_speed_bound(config: MobilityConfig, max_speed_mps: float) -> float:
    """Exact speed bound of a fleet built from ``config``.

    Every model clamps or draws speeds within the scenario envelope; RPGM
    members additionally move relative to their reference, so their bound
    is the sum of the two (a member's offset walk runs at up to half the
    scenario's max speed, see :func:`build_fleet`).
    """
    if config.model == "rpgm":
        return max_speed_mps + max_speed_mps / 2.0
    return max_speed_mps


def _rpgm_groups(
    config: MobilityConfig,
    num_nodes: int,
    member_groups: Optional[Sequence[Sequence[int]]],
) -> List[List[int]]:
    """Partition node ids into mobility groups.

    With multicast alignment each multicast group's members form one
    mobility group (a node belonging to several multicast groups rides
    with the first); every remaining node is chunked by id into groups of
    :data:`RPGM_GROUP_SIZE`.
    """
    groups: List[List[int]] = []
    assigned = set()
    if config.rpgm_align_multicast and member_groups:
        for members in member_groups:
            group = [n for n in members if n not in assigned]
            if group:
                groups.append(group)
                assigned.update(group)
    rest = [n for n in range(num_nodes) if n not in assigned]
    for start in range(0, len(rest), RPGM_GROUP_SIZE):
        groups.append(rest[start:start + RPGM_GROUP_SIZE])
    return groups


def build_fleet(
    config: MobilityConfig,
    area: RectangularArea,
    num_nodes: int,
    streams,
    *,
    min_speed_mps: float,
    max_speed_mps: float,
    max_pause_s: float,
    member_groups: Optional[Sequence[Sequence[int]]] = None,
) -> List[MobilityModel]:
    """One mobility model per node id, deterministically seeded.

    Every node draws from its own ``"mobility"/node-<id>`` stream (for
    random waypoint this reproduces the historic construction exactly);
    RPGM group references draw from per-group ``"mobility.rpgm-ref"``
    streams, and ``member_groups`` (the scenario's multicast member sets)
    aligns mobility groups with multicast groups when configured.
    """
    model = config.model
    if model == "random_waypoint":
        return [
            RandomWaypointMobility(
                area,
                streams.for_node("mobility", node_id),
                min_speed_mps=min_speed_mps,
                max_speed_mps=max_speed_mps,
                max_pause_s=max_pause_s,
            )
            for node_id in range(num_nodes)
        ]
    if model == "gauss_markov":
        from repro.mobility.gauss_markov import GaussMarkovMobility

        return [
            GaussMarkovMobility(
                area,
                streams.for_node("mobility", node_id),
                max_speed_mps=max_speed_mps,
            )
            for node_id in range(num_nodes)
        ]
    if model == "manhattan":
        from repro.mobility.manhattan import ManhattanGridMobility

        return [
            ManhattanGridMobility(
                area,
                streams.for_node("mobility", node_id),
                min_speed_mps=min_speed_mps,
                max_speed_mps=max_speed_mps,
                max_pause_s=max_pause_s,
            )
            for node_id in range(num_nodes)
        ]
    # RPGM: group references first (in group order), then per-node members.
    from repro.mobility.rpgm import RpgmMobility, build_group_reference

    fleet: List[Optional[MobilityModel]] = [None] * num_nodes
    for group_index, members in enumerate(
        _rpgm_groups(config, num_nodes, member_groups)
    ):
        reference = build_group_reference(
            area,
            streams.for_node("mobility.rpgm-ref", group_index),
            min_speed_mps=min_speed_mps,
            max_speed_mps=max_speed_mps,
            max_pause_s=max_pause_s,
        )
        for node_id in members:
            fleet[node_id] = RpgmMobility(
                area,
                reference,
                streams.for_node("mobility", node_id),
                member_speed_mps=max_speed_mps / 2.0,
                max_pause_s=max_pause_s,
            )
    return fleet  # type: ignore[return-value]
