"""One experiment specification per figure of the paper's evaluation.

Every figure sweeps a single parameter while comparing MAODV against
MAODV + Anonymous Gossip:

* Fig. 2 / Fig. 3 -- packet delivery vs transmission range (45-85 m) at a
  maximum speed of 0.2 m/s and 2 m/s respectively (40 nodes).
* Fig. 4 / Fig. 5 -- packet delivery vs maximum speed (0.1-1 m/s and
  1-10 m/s) at a transmission range of 75 m (40 nodes).
* Fig. 6 -- packet delivery vs number of nodes (40-100), transmission range
  scaled to keep the average neighbour count constant.
* Fig. 7 -- packet delivery vs number of nodes (40-100) at a fixed 55 m
  transmission range.
* Fig. 8 -- gossip goodput per member for {45 m, 75 m} x {0.2, 2 m/s}.

Every spec can be materialised at ``paper`` scale (600 s runs, 2201 packets,
10 seeds) or at ``quick`` scale (shorter source phase, fewer nodes/seeds)
for CI-sized runs; the protocol parameters are identical in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.membership.config import ChurnConfig
from repro.mobility.config import MobilityConfig
from repro.workload.scenario import ScenarioConfig

#: The (transmission range, max speed) combinations of the Fig. 8 goodput
#: experiment, in the order the paper plots them.
GOODPUT_COMBINATIONS: List[Tuple[float, float]] = [
    (45.0, 0.2),
    (75.0, 0.2),
    (45.0, 2.0),
    (75.0, 2.0),
]


@dataclass
class ExperimentSpec:
    """A parameter sweep reproducing one figure."""

    figure: str
    title: str
    x_label: str
    x_values: List[float]
    #: Builds the scenario config for one x value at a given scale.
    config_builder: Callable[[float, str], ScenarioConfig] = field(repr=False)
    #: For goodput-style experiments the x values are indices into these
    #: (transmission range, max speed) combinations; ``None`` for plain
    #: single-parameter sweeps.
    combinations: Optional[List[Tuple[float, float]]] = None

    def config_for(self, x: float, *, scale: str = "quick", seed: int = 1) -> ScenarioConfig:
        """The scenario config for swept value ``x`` at ``scale`` with ``seed``."""
        if scale not in ("paper", "quick"):
            raise ValueError(f"unknown scale {scale!r}")
        config = self.config_builder(x, scale)
        return replace(config, seed=seed)

    def seeds_for(self, scale: str) -> int:
        """Number of replications used at ``scale`` (the paper uses 10)."""
        return 10 if scale == "paper" else 2


def _base_config(scale: str, **overrides) -> ScenarioConfig:
    if scale == "paper":
        return ScenarioConfig.paper(**overrides)
    return ScenarioConfig.quick(**overrides)


def _quick_node_count(paper_nodes: float) -> int:
    """Scale the paper's node counts (40-100) down for quick runs (14-34)."""
    return max(8, int(round(paper_nodes / 3)))


#: Node density of the paper's reference setup (40 nodes in 200 m x 200 m).
_PAPER_DENSITY = 40 / (200.0 * 200.0)


def _equivalent_quick_range(
    paper_range_m: float,
    quick_nodes: int,
    quick_area_m: float = 150.0,
) -> float:
    """Transmission range giving the quick scenario the paper's connectivity.

    The expected neighbour count of a node is ``density * pi * range^2``;
    keeping it equal between the paper's 40-node/200 m setup and the scaled
    quick setup means scaling the range by ``sqrt(paper_density /
    quick_density)``.  Without this correction the sparse end of each sweep
    is dominated by network partitions rather than protocol behaviour.
    """
    quick_density = quick_nodes / (quick_area_m * quick_area_m)
    return paper_range_m * math.sqrt(_PAPER_DENSITY / quick_density)


def _reference_config(scale: str, range_m: float, speed: float, **overrides) -> ScenarioConfig:
    """The paper's 40-node setup at one (transmission range, max speed) point.

    At quick scale the range is scaled to keep the paper's connectivity.
    """
    if scale == "paper":
        return _base_config(
            scale, num_nodes=40, transmission_range_m=range_m, max_speed_mps=speed,
            **overrides,
        )
    return _base_config(
        scale, transmission_range_m=_equivalent_quick_range(range_m, 16),
        max_speed_mps=speed, **overrides,
    )


# --------------------------------------------------------------------- figures
def _range_sweep(figure: str, speed: float) -> ExperimentSpec:
    """Figs. 2/3: packet delivery vs transmission range at one max speed."""
    return ExperimentSpec(
        figure=figure,
        title=f"Packet delivery vs transmission range (max speed {speed:g} m/s)",
        x_label="transmission range (m)",
        x_values=[45, 50, 55, 60, 65, 70, 75, 80, 85],
        config_builder=lambda x, scale: _reference_config(scale, x, speed),
    )


def figure2_range_slow() -> ExperimentSpec:
    """Fig. 2: packet delivery vs transmission range, max speed 0.2 m/s."""
    return _range_sweep("fig2", 0.2)


def figure3_range_fast() -> ExperimentSpec:
    """Fig. 3: packet delivery vs transmission range, max speed 2 m/s."""
    return _range_sweep("fig3", 2.0)


def _speed_sweep(figure: str, speeds: str, x_values: List[float]) -> ExperimentSpec:
    """Figs. 4/5: packet delivery vs maximum speed at a range of 75 m."""
    return ExperimentSpec(
        figure=figure,
        title=f"Packet delivery vs maximum speed ({speeds}, range 75 m)",
        x_label="max speed (m/s)",
        x_values=x_values,
        config_builder=lambda x, scale: _reference_config(scale, 75.0, x),
    )


def figure4_speed_low() -> ExperimentSpec:
    """Fig. 4: packet delivery vs maximum speed, 0.1-1 m/s, range 75 m."""
    return _speed_sweep("fig4", "0.1-1 m/s", [round(0.1 * i, 1) for i in range(1, 11)])


def figure5_speed_high() -> ExperimentSpec:
    """Fig. 5: packet delivery vs maximum speed, 1-10 m/s, range 75 m."""
    return _speed_sweep("fig5", "1-10 m/s", [float(i) for i in range(1, 11)])


def _node_sweep(
    figure: str, title: str, range_for: Callable[[float], float]
) -> ExperimentSpec:
    """Figs. 6/7: packet delivery vs number of nodes at max speed 0.2 m/s.

    ``range_for(nodes)`` is the paper-scale transmission range; quick scale
    shrinks the fleet and scales that range to keep its connectivity.
    """

    def build(x: float, scale: str) -> ScenarioConfig:
        range_m = range_for(x)
        if scale == "paper":
            return _base_config(
                scale, num_nodes=int(x), max_speed_mps=0.2, transmission_range_m=range_m
            )
        nodes = _quick_node_count(x)
        return _base_config(
            scale,
            num_nodes=nodes,
            member_count=max(2, nodes // 3),
            max_speed_mps=0.2,
            transmission_range_m=_equivalent_quick_range(range_m, nodes),
        )

    return ExperimentSpec(
        figure=figure,
        title=title,
        x_label="# nodes",
        x_values=[40, 50, 60, 70, 80, 90, 100],
        config_builder=build,
    )


def figure6_nodes_constant_degree() -> ExperimentSpec:
    """Fig. 6: packet delivery vs number of nodes, constant average degree.

    The transmission range is scaled with 1/sqrt(density) so the expected
    number of neighbours of a node stays approximately constant as the node
    count grows, which is how the paper runs this experiment.
    """
    return _node_sweep(
        "fig6",
        "Packet delivery vs number of nodes (constant average degree)",
        lambda nodes: 75.0 * math.sqrt(40.0 / nodes),
    )


def figure7_nodes_constant_range() -> ExperimentSpec:
    """Fig. 7: packet delivery vs number of nodes, fixed 55 m range."""
    return _node_sweep(
        "fig7", "Packet delivery vs number of nodes (range 55 m)", lambda nodes: 55.0
    )


def figure8_goodput() -> ExperimentSpec:
    """Fig. 8: gossip goodput per member for 2x2 range/speed combinations.

    The swept "x" values are indices into the four (range, speed)
    combinations the paper plots: (45 m, 0.2 m/s), (75 m, 0.2 m/s),
    (45 m, 2 m/s), (75 m, 2 m/s).
    """

    combinations = list(GOODPUT_COMBINATIONS)

    def build(x: float, scale: str) -> ScenarioConfig:
        return _reference_config(scale, *combinations[int(x)])

    return ExperimentSpec(
        figure="fig8",
        title="Gossip goodput per member (range, speed combinations)",
        x_label="combination index",
        x_values=[0, 1, 2, 3],
        config_builder=build,
        combinations=combinations,
    )


# ----------------------------------------------------- beyond-the-paper sweeps
def churn_rate_sweep() -> ExperimentSpec:
    """Churn sweep: packet delivery vs membership churn rate.

    A workload family the paper never measured: Poisson membership churn
    joins and leaves group members *during* the source phase at ``x``
    membership events per minute per group (``x = 0`` is the paper's static
    membership).  Delivery ratios are membership-interval-aware -- a packet
    counts against a member only when it was sent while that member was
    subscribed -- so the MAODV and MAODV+AG series stay comparable across
    churn rates.
    """

    def build(x: float, scale: str) -> ScenarioConfig:
        if scale == "paper":
            base = _base_config(
                scale, num_nodes=40, transmission_range_m=75.0, max_speed_mps=0.2
            )
            window = (60.0, base.source_stop_s)
        else:
            base = _base_config(scale, max_speed_mps=0.2)
            window = (8.0, base.source_stop_s)
        if x <= 0:
            return base
        churn = ChurnConfig(
            model="poisson",
            events_per_minute=float(x),
            start_s=window[0],
            stop_s=window[1],
            min_members=2,
        )
        return replace(base, churn_config=churn)

    return ExperimentSpec(
        figure="churn",
        title="Packet delivery vs membership churn rate (Poisson joins/leaves)",
        x_label="membership events / min / group",
        x_values=[0.0, 2.0, 6.0, 12.0],
        config_builder=build,
    )


def group_count_sweep() -> ExperimentSpec:
    """Multi-group sweep: packet delivery vs concurrent multicast groups.

    ``x`` groups share one protocol stack; each has its own (possibly
    overlapping) member set and its own CBR source over the same window, so
    contention grows with the group count.  The reported delivery ratio
    averages the per-(group, member) ratios; per-group summaries ride along
    in the trial records.
    """

    def build(x: float, scale: str) -> ScenarioConfig:
        groups = max(1, int(x))
        if scale == "paper":
            return _base_config(
                scale,
                num_nodes=40,
                transmission_range_m=75.0,
                max_speed_mps=0.2,
                member_count=10,
                group_count=groups,
            )
        return _base_config(scale, member_count=4, group_count=groups)

    return ExperimentSpec(
        figure="groups",
        title="Packet delivery vs number of concurrent multicast groups",
        x_label="# groups",
        x_values=[1, 2, 3, 4],
        config_builder=build,
    )


#: The mobility models swept by :func:`mobility_model_sweep`, in x order.
#: "rpgm_scattered" is RPGM with ``rpgm_align_multicast=False`` -- multicast
#: members scattered across mobility groups instead of travelling together,
#: the knob's adversarial setting.
MOBILITY_SWEEP_MODELS: List[str] = [
    "random_waypoint",
    "gauss_markov",
    "rpgm",
    "manhattan",
    "rpgm_scattered",
]


def mobility_model_sweep() -> ExperimentSpec:
    """Mobility-pattern sweep: packet delivery vs mobility model.

    A scenario family the paper never measured: the same fig4/fig5-style
    geometry (range 75 m, max speed 2 m/s) run under each mobility model --
    the paper's random waypoint, smooth Gauss-Markov, reference-point group
    mobility (each multicast group's members travel together, the natural
    MANET-multicast workload) and a Manhattan street grid.  ``x`` indexes
    :data:`MOBILITY_SWEEP_MODELS`; the speed envelope is identical across
    models, so differences isolate the motion *pattern*.
    """

    def build(x: float, scale: str) -> ScenarioConfig:
        name = MOBILITY_SWEEP_MODELS[int(x)]
        if name == "rpgm_scattered":
            mobility = MobilityConfig(model="rpgm", rpgm_align_multicast=False)
        else:
            mobility = MobilityConfig(model=name)
        return _reference_config(scale, 75.0, 2.0, mobility_config=mobility)

    return ExperimentSpec(
        figure="mobility",
        title="Packet delivery vs mobility model "
              "(random waypoint, Gauss-Markov, RPGM, Manhattan, "
              "scattered RPGM)",
        x_label="model index",
        x_values=[0, 1, 2, 3, 4],
        config_builder=build,
    )


def all_figures() -> Dict[str, ExperimentSpec]:
    """All experiment specs keyed by figure id (paper figures + extensions)."""
    specs = [
        figure2_range_slow(),
        figure3_range_fast(),
        figure4_speed_low(),
        figure5_speed_high(),
        figure6_nodes_constant_degree(),
        figure7_nodes_constant_range(),
        figure8_goodput(),
        churn_rate_sweep(),
        group_count_sweep(),
        mobility_model_sweep(),
    ]
    return {spec.figure: spec for spec in specs}
