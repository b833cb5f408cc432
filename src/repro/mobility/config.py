"""Mobility-model configuration and fleet construction.

:class:`MobilityConfig` selects which mobility model a scenario's fleet
uses and carries the model-specific parameters; :func:`build_fleet`
materialises one :class:`~repro.mobility.base.MobilityModel` per node from
a scenario's named random streams, so a seed fully determines every
trajectory regardless of model.  The shared speed envelope
(``min_speed_mps`` / ``max_speed_mps`` / ``max_pause_s``) stays on the
scenario config -- the paper sweeps it -- and every model interprets it in
its own terms:

``"random_waypoint"``
    The paper's model (travel to a uniform waypoint, pause, repeat).  The
    default, and byte-for-byte the construction the scenario always used.
``"gauss_markov"``
    Smooth autoregressive speed/direction evolution -- no waypoint sharp
    turns, tunable memory (:attr:`MobilityConfig.gm_alpha`).
``"rpgm"``
    Reference-point group mobility: groups move together (optionally
    aligned with the multicast member sets -- the natural MANET-multicast
    workload), members jitter around the group reference.
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


@dataclass
class MobilityConfig:
    """Which mobility model a scenario's fleet uses, and its parameters."""

    #: One of :data:`MOBILITY_MODELS`.
    model: str = "random_waypoint"

    # Gauss-Markov: sampling period, memory, innovation scales.  The mean
    # speed and the speed sigma default from the scenario's speed envelope.
    gm_step_s: float = 2.0
    gm_alpha: float = 0.85
    gm_mean_speed_mps: Optional[float] = None
    gm_speed_sigma_mps: Optional[float] = None
    gm_direction_sigma_rad: float = 0.4
    gm_edge_margin_m: Optional[float] = None

    #: RPGM: nodes per mobility group (used for nodes not covered by the
    #: multicast alignment below, and for everything when it is off).
    rpgm_group_size: int = 4
    #: Half-width of the offset box members roam around their reference.
    rpgm_group_radius_m: float = 25.0
    #: Max speed of a member relative to its reference; defaults to half
    #: the scenario's max speed.
    rpgm_member_speed_mps: Optional[float] = None
    #: Put each multicast group's members into one mobility group (the
    #: members travel together); non-members are chunked by node id.
    rpgm_align_multicast: bool = True

    # Manhattan: city-grid shape and intersection behaviour.
    mh_blocks_x: int = 4
    mh_blocks_y: int = 4
    mh_turn_probability: float = 0.25
    mh_pause_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"unknown mobility model {self.model!r}; known models: "
                + ", ".join(MOBILITY_MODELS)
            )
        if self.gm_step_s <= 0:
            raise ValueError("gm_step_s must be positive")
        if not 0.0 <= self.gm_alpha <= 1.0:
            raise ValueError("gm_alpha must lie in [0, 1]")
        if self.rpgm_group_size < 1:
            raise ValueError("rpgm_group_size must be at least 1")
        if self.rpgm_group_radius_m <= 0:
            raise ValueError("rpgm_group_radius_m must be positive")
        if self.rpgm_member_speed_mps is not None and self.rpgm_member_speed_mps < 0:
            raise ValueError("rpgm_member_speed_mps must be non-negative")
        if self.mh_blocks_x < 1 or self.mh_blocks_y < 1:
            raise ValueError("manhattan grids need at least one block per axis")
        if not 0.0 <= self.mh_turn_probability <= 1.0:
            raise ValueError("mh_turn_probability must lie in [0, 1]")
        if not 0.0 <= self.mh_pause_probability <= 1.0:
            raise ValueError("mh_pause_probability must lie in [0, 1]")

    def member_speed(self, max_speed_mps: float) -> float:
        """The RPGM offset-walk speed for a given scenario max speed."""
        if self.rpgm_member_speed_mps is not None:
            return self.rpgm_member_speed_mps
        return max_speed_mps / 2.0


def fleet_speed_bound(config: MobilityConfig, max_speed_mps: float) -> float:
    """Exact speed bound of a fleet built from ``config``.

    Every model clamps or draws speeds within the scenario envelope; RPGM
    members additionally move relative to their reference, so their bound
    is the sum of the two.
    """
    if config.model == "rpgm":
        return max_speed_mps + config.member_speed(max_speed_mps)
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
    ``rpgm_group_size``.
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
    size = config.rpgm_group_size
    for start in range(0, len(rest), size):
        groups.append(rest[start:start + size])
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
                mean_speed_mps=config.gm_mean_speed_mps,
                speed_sigma_mps=config.gm_speed_sigma_mps,
                direction_sigma_rad=config.gm_direction_sigma_rad,
                alpha=config.gm_alpha,
                step_s=config.gm_step_s,
                edge_margin_m=config.gm_edge_margin_m,
            )
            for node_id in range(num_nodes)
        ]
    if model == "manhattan":
        from repro.mobility.manhattan import ManhattanGridMobility

        return [
            ManhattanGridMobility(
                area,
                streams.for_node("mobility", node_id),
                blocks_x=config.mh_blocks_x,
                blocks_y=config.mh_blocks_y,
                min_speed_mps=min_speed_mps,
                max_speed_mps=max_speed_mps,
                max_pause_s=max_pause_s,
                turn_probability=config.mh_turn_probability,
                pause_probability=config.mh_pause_probability,
            )
            for node_id in range(num_nodes)
        ]
    # RPGM: group references first (in group order), then per-node members.
    from repro.mobility.rpgm import RpgmMobility, build_group_reference

    member_speed = config.member_speed(max_speed_mps)
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
                group_radius_m=config.rpgm_group_radius_m,
                member_speed_mps=member_speed,
                max_pause_s=max_pause_s,
            )
    return fleet  # type: ignore[return-value]
