#!/usr/bin/env python3
"""Failure sweep: independent vs regionally correlated outages.

The paper evaluates Anonymous Gossip under mobility-induced losses; this
example stresses the complementary failure axis.  It sweeps the radius of
*correlated regional outages* (a disc-shaped power cut / jammer knocking out
every radio inside it, ``RegionalFailureInjector``) on a fixed quick-scale
scenario, and contrasts the widest disc with *independent* per-node outages
of comparable total downtime (``RandomFailureInjector``).  Correlated
failures remove whole tree branches at once, which is exactly the regime
gossip-based recovery is meant to survive.

Run with::

    python examples/failure_sweep.py [--seed N]
"""

from __future__ import annotations

import argparse
import random

from repro import ScenarioConfig
from repro.metrics.reporting import format_rows
from repro.mobility.base import RectangularArea
from repro.workload.failures import RandomFailureInjector, RegionalFailureInjector
from repro.workload.scenario import Scenario


def _base_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig.quick(
        seed=seed,
        transmission_range_m=60.0,
        max_speed_mps=1.0,
        max_pause_s=20.0,
        gossip_enabled=True,
    )


def _run(config: ScenarioConfig, attach_injector=None) -> dict:
    scenario = Scenario(config).build()
    injector = None
    if attach_injector is not None:
        injector = attach_injector(scenario)
        injector.start()
    result = scenario.run()
    stats = result.protocol_stats
    outages = len(getattr(injector, "outages", ()) or ())
    nodes_hit = 0
    if injector is not None and injector.outages:
        first = injector.outages[0]
        if hasattr(first, "node_ids"):  # regional
            nodes_hit = sum(len(outage.node_ids) for outage in injector.outages)
        else:  # random: (node_id, start, end) tuples
            nodes_hit = len(injector.outages)
    return {
        "outages": outages,
        "nodes_hit": nodes_hit,
        "delivery": result.summary.delivery_ratio,
        "goodput": result.mean_goodput,
        "recovered": stats.get("gossip.recovered_messages", 0),
        "mac_fail": stats.get("mac.unicast_failures", 0),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3, help="random seed")
    args = parser.parse_args()
    base = _base_config(args.seed)
    area = RectangularArea(base.area_width_m, base.area_height_m)

    rows = {}
    rows["no failures"] = _run(base)
    for radius in (30.0, 60.0, 90.0):
        rows[f"regional r={radius:.0f} m"] = _run(
            base,
            lambda scenario, r=radius: RegionalFailureInjector(
                scenario.sim,
                scenario.nodes,
                random.Random(base.seed + 1),
                area=area,
                mean_time_between_outages_s=15.0,
                radius_m=r,
                min_outage_s=4.0,
                max_outage_s=10.0,
                protected=[scenario.sources_by_group[0][0]],
            ),
        )
    rows["independent (random)"] = _run(
        base,
        lambda scenario: RandomFailureInjector(
            scenario.sim,
            scenario.nodes,
            random.Random(base.seed + 1),
            mean_time_to_failure_s=60.0,
            min_outage_s=4.0,
            max_outage_s=10.0,
            protected=[scenario.sources_by_group[0][0]],
        ),
    )

    print("Failure sweep on a quick-scale scenario "
          f"({base.num_nodes} nodes, {base.transmission_range_m:.0f} m range)\n")
    print(format_rows(
        ["scenario", "outages", "nodes hit", "delivery", "goodput%", "recovered", "mac fails"],
        [
            [
                name,
                row["outages"],
                row["nodes_hit"],
                f"{row['delivery']:.3f}",
                f"{row['goodput']:.1f}",
                row["recovered"],
                row["mac_fail"],
            ]
            for name, row in rows.items()
        ],
    ))
    print("\nCorrelated discs concentrate damage: one strike opens a large "
          "hole in the tree,\nso MAC-level delivery failures and "
          "gossip-recovered packets climb with the\noutage radius -- the "
          "recovery path, not the tree, is what keeps delivery high.")


if __name__ == "__main__":
    main()
