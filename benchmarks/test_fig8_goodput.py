"""Benchmark reproducing Fig. 8: gossip goodput at different group members.

Goodput is the percentage of non-duplicate messages among all messages
received through gossip replies.  The paper reports values close to 100% for
all four (transmission range, speed) combinations, i.e. almost every gossip
reply carried useful data.
"""

import pytest

from benchmarks.conftest import bench_scale, bench_seeds
from repro.campaign import aggregate_goodput, run_campaign, trials_for_spec
from repro.experiments.figures import figure8_goodput
from repro.metrics.reporting import format_rows


@pytest.mark.benchmark(group="fig8")
def test_fig8_goodput_per_member(benchmark):
    spec = figure8_goodput()
    scale = bench_scale()
    seeds = bench_seeds(1)

    def _run():
        trials = trials_for_spec(spec, scale=scale, seeds=seeds, variants=("gossip",))
        return aggregate_goodput(spec, run_campaign(trials))

    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for (range_m, speed), per_member in sorted(results.items()):
        for member, goodput in sorted(per_member.items()):
            rows.append([f"{range_m:.0f}m", f"{speed}m/s", member, f"{goodput:.1f}"])
        mean = sum(per_member.values()) / len(per_member)
        benchmark.extra_info[f"goodput@{range_m}m,{speed}mps"] = round(mean, 2)
    print()
    print(format_rows(["range", "speed", "member", "goodput %"], rows))

    # Shape check: goodput stays high (the paper reports 97-100%).  The
    # quick-scale sweep is noisier, so the bound is conservative.
    for per_member in results.values():
        mean = sum(per_member.values()) / len(per_member)
        assert mean >= 60.0
