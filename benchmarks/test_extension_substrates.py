"""Extension benchmark: Anonymous Gossip over different multicast substrates.

The paper's future-work section states that AG "could be used with any
existing multicast protocol" and names ODMRP as the mesh-based candidate.
This benchmark layers the identical gossip configuration over three
substrates -- the MAODV tree, the ODMRP mesh and blind flooding -- on the
same stressed scenario and reports how much each substrate gains from gossip
recovery.
"""

import pytest

from benchmarks.conftest import bench_scale, bench_seeds
from repro.experiments.variants import variant_config
from repro.workload.scenario import Scenario, ScenarioConfig

VARIANTS = ("maodv", "gossip", "odmrp", "odmrp-gossip", "flooding")


def _base(seed: int) -> ScenarioConfig:
    if bench_scale() == "paper":
        return ScenarioConfig.paper(
            seed=seed, transmission_range_m=55.0, max_speed_mps=2.0
        )
    return ScenarioConfig.quick(
        seed=seed, transmission_range_m=60.0, max_speed_mps=2.0
    )


@pytest.mark.benchmark(group="extension")
def test_gossip_over_different_substrates(benchmark):
    seeds = bench_seeds(2)

    def _run():
        measured = {}
        for variant in VARIANTS:
            runs = [
                Scenario(variant_config(_base(seed), variant)).run()
                for seed in range(1, seeds + 1)
            ]
            measured[variant] = {
                "mean": sum(run.summary.mean for run in runs) / len(runs),
                "sent": runs[0].packets_sent,
                "goodput": sum(run.mean_goodput for run in runs) / len(runs),
            }
        return measured

    measured = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    for variant, values in measured.items():
        print(f"{variant:14s} mean={values['mean']:7.1f}/{values['sent']} "
              f"goodput={values['goodput']:5.1f}%")
        benchmark.extra_info[variant] = {k: round(v, 1) for k, v in values.items()}

    # Gossip must not hurt either substrate it is layered over.
    assert measured["gossip"]["mean"] >= measured["maodv"]["mean"] - 1.0
    assert measured["odmrp-gossip"]["mean"] >= measured["odmrp"]["mean"] - 1.0
