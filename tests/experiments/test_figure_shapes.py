"""Quick-scale shape checks of the paper's Figs. 2-8 and three comparisons.

Each figure check runs its sweep the way ``repro campaign`` does --
:func:`trials_for_spec`, :func:`run_campaign`, then
:func:`aggregate_experiment` (Fig. 8: :func:`aggregate_goodput`) -- on a
subset of the figure's x values with one seed.  The ablation, flooding
baseline and substrates checks compare protocol variants, built through
:func:`variant_config`, over two seeds of one stressed point.

These are shape checks, not the paper's numbers: a quick-scale seed is
noisy, so every threshold is loose.  ``repro campaign FIG --scale paper``
runs a figure at the paper's scale.
"""

from typing import Dict, Iterable, List, Mapping

import pytest

from repro.campaign import (
    ExperimentResult,
    aggregate_experiment,
    aggregate_goodput,
    run_campaign,
    trials_for_spec,
)
from repro.experiments.figures import all_figures
from repro.experiments.variants import variant_config
from repro.workload.scenario import Scenario, ScenarioConfig, ScenarioResult


def sweep(figure: str, x_values, seeds: int, variants=("maodv", "gossip")) -> ExperimentResult:
    """One quick-scale sweep of ``figure`` through the campaign path."""
    spec = all_figures()[figure]
    trials = trials_for_spec(
        spec, scale="quick", seeds=seeds, x_values=x_values, variants=variants
    )
    return aggregate_experiment(spec, run_campaign(trials))


def assert_gossip_improves_delivery(
    result: ExperimentResult, slack: float = 1.0, per_point_factor: float = 0.75
) -> None:
    """The paper's headline shape: AG does not degrade MAODV's delivery.

    Aggregated over the sweep, gossip delivers at least as many packets per
    member as plain MAODV, minus ``slack`` per point.  At each point the
    gossip mean stays above ``per_point_factor`` of MAODV's: single-seed
    runs of sparse topologies are partition-dominated, so the per-point
    requirement is looser than the aggregate one.
    """
    maodv_points = {point.x: point for point in result.points_for("maodv")}
    paired = [
        (point, maodv_points[point.x])
        for point in result.points_for("gossip")
        if point.x in maodv_points
    ]
    gossip_total = sum(point.mean for point, _ in paired)
    maodv_total = sum(point.mean for _, point in paired)
    assert gossip_total >= maodv_total - slack * len(paired), (
        f"gossip delivered {gossip_total:.1f} packets/member across the sweep, "
        f"less than MAODV's {maodv_total:.1f}"
    )
    for gossip_point, maodv_point in paired:
        assert gossip_point.mean >= maodv_point.mean * per_point_factor - slack, (
            f"x={gossip_point.x}: gossip mean {gossip_point.mean:.1f} fell below "
            f"{per_point_factor:.0%} of MAODV mean {maodv_point.mean:.1f}"
        )


def recovered(protocol_stats: Iterable[Mapping[str, float]]) -> float:
    """Messages gossip replies recovered, summed over runs.

    Goodput and the delivery bounds above can pass with gossip replies
    switched off (a member that received no reply reads 100 % goodput), so
    the Fig. 8, flooding-baseline and substrates checks also require each
    gossip variant to have recovered something.
    """
    return sum(stats.get("gossip.recovered_messages", 0) for stats in protocol_stats)


def _range_helps_delivery(result: ExperimentResult) -> None:
    # Delivery improves, or at worst stays flat, from the sparsest range to
    # the densest.
    for variant in ("maodv", "gossip"):
        points = result.points_for(variant)
        assert points[-1].mean >= points[0].mean * 0.8


def _gossip_nears_sent_at_widest_range(result: ExperimentResult) -> None:
    # At the largest range the network is well connected: gossip pushes
    # delivery close to the number of packets sent.
    best = result.points_for("gossip")[-1]
    assert best.mean >= 0.6 * best.packets_sent


def _gossip_delivers_most_at_walking_pace(result: ExperimentResult) -> None:
    slowest = result.points_for("gossip")[0]
    assert slowest.delivery_ratio >= 0.7


def _no_extra_shape(result: ExperimentResult) -> None:
    pass


#: Figure id, the x values swept, and the figure's own shape assertion.
FIGURES = [
    ("fig2", [45, 55, 65, 75, 85], _range_helps_delivery),
    ("fig3", [45, 55, 65, 75, 85], _gossip_nears_sent_at_widest_range),
    ("fig4", [0.2, 0.5, 1.0], _gossip_delivers_most_at_walking_pace),
    ("fig5", [1.0, 5.0, 10.0], _no_extra_shape),
    ("fig6", [40, 70, 100], _no_extra_shape),
    ("fig7", [40, 70, 100], _no_extra_shape),
]


@pytest.mark.parametrize(
    "figure, x_values, extra_shape", FIGURES, ids=[row[0] for row in FIGURES]
)
def test_figure_shape(figure, x_values, extra_shape):
    result = sweep(figure, x_values, seeds=1)
    assert_gossip_improves_delivery(result)
    extra_shape(result)


def test_fig8_goodput_stays_high():
    # The paper reports 97-100 %; a quick-scale seed is noisier.
    spec = all_figures()["fig8"]
    records = run_campaign(
        trials_for_spec(spec, scale="quick", seeds=1, variants=("gossip",))
    )
    for per_member in aggregate_goodput(spec, records).values():
        assert sum(per_member.values()) / len(per_member) >= 60.0
    assert recovered(record.protocol_stats for record in records) > 0


ABLATION = (
    "maodv",
    "gossip",
    "gossip-anonymous-only",
    "gossip-cached-only",
    "gossip-no-locality",
)


def test_every_gossip_mechanism_matches_maodv():
    # Which parts of AG matter: anonymous propagation, the locality bias
    # (section 4.2) and cached gossip (section 4.3), each removed in turn,
    # on a sparse, fast-moving point of Fig. 3 where recovery matters.
    result = sweep("fig3", [55], seeds=2, variants=ABLATION)
    points = {point.variant: point for point in result.points}
    assert set(points) == set(ABLATION)
    for variant in ABLATION[1:]:
        assert points[variant].mean >= points["maodv"].mean - 1.0


def variant_runs(variants, **overrides) -> Dict[str, List[ScenarioResult]]:
    """Seeds 1 and 2 of each variant on one quick-scale point."""
    return {
        variant: [
            Scenario(variant_config(ScenarioConfig.quick(seed=seed, **overrides), variant)).run()
            for seed in (1, 2)
        ]
        for variant in variants
    }


def flooding_baseline() -> Dict[str, Dict[str, float]]:
    """Mean delivery and MAC transmissions of MAODV, AG and flooding."""
    runs = variant_runs(
        ("maodv", "gossip", "flooding"), transmission_range_m=55.0, max_speed_mps=1.0
    )
    return {
        variant: {
            "mean": sum(run.summary.mean for run in results) / len(results),
            "transmissions": sum(
                run.protocol_stats.get("mac.data_transmissions", 0)
                + run.protocol_stats.get("mac.broadcast_transmissions", 0)
                for run in results
            ) / len(results),
            "recovered": recovered(run.protocol_stats for run in results),
        }
        for variant, results in runs.items()
    }


def test_flooding_buys_delivery_with_transmissions():
    # Flooding is the related work's brute-force baseline: it burns more
    # transmissions than the tree, and gossip recovers at least as much as
    # plain MAODV.
    rows = flooding_baseline()
    assert rows["gossip"]["mean"] >= rows["maodv"]["mean"] - 1.0
    assert rows["gossip"]["recovered"] > 0
    assert rows["flooding"]["transmissions"] > rows["maodv"]["transmissions"]


def substrates() -> Dict[str, Dict[str, float]]:
    """Delivery and goodput of AG over the MAODV tree, ODMRP and flooding."""
    runs = variant_runs(
        ("maodv", "gossip", "odmrp", "odmrp-gossip", "flooding"),
        transmission_range_m=60.0,
        max_speed_mps=2.0,
    )
    return {
        variant: {
            "mean": sum(run.summary.mean for run in results) / len(results),
            "sent": results[0].packets_sent,
            "goodput": sum(run.mean_goodput for run in results) / len(results),
            "recovered": recovered(run.protocol_stats for run in results),
        }
        for variant, results in runs.items()
    }


def test_gossip_helps_every_substrate():
    # The paper's future work: AG "could be used with any existing multicast
    # protocol", ODMRP's mesh named first.  Gossip must not hurt either
    # substrate it is layered over.
    measured = substrates()
    assert measured["gossip"]["mean"] >= measured["maodv"]["mean"] - 1.0
    assert measured["odmrp-gossip"]["mean"] >= measured["odmrp"]["mean"] - 1.0
    for variant in ("gossip", "odmrp-gossip"):
        assert measured[variant]["recovered"] > 0, f"{variant} recovered nothing"
