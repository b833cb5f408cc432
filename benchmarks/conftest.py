"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure (or table) of the paper's evaluation:
it runs the corresponding experiment sweep, prints the measured series
(mean / min / max packets received per member for MAODV and for
MAODV + Anonymous Gossip) and records the numbers in the pytest-benchmark
``extra_info`` so they land in the saved benchmark JSON.

Scale
-----
By default the sweeps run at ``quick`` scale (scaled-down node count and
source phase, identical protocol parameters) so the whole harness finishes in
minutes.  Set ``REPRO_BENCH_SCALE=paper`` to run the paper's full 600-second,
10-seed configuration (hours of CPU), ``REPRO_BENCH_SEEDS=<n>`` to override
the number of seeds per point, and ``REPRO_BENCH_JOBS=<n>`` to fan the
independent trials of each sweep out over ``n`` worker processes through the
campaign executor (aggregates are identical for every job count).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import pytest

from repro.campaign import ExperimentResult, aggregate_experiment, run_campaign, trials_for_spec
from repro.experiments.figures import ExperimentSpec


def bench_scale() -> str:
    """The sweep scale selected through the environment (quick or paper)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("quick", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be 'quick' or 'paper', got {scale!r}")
    return scale


def bench_seeds(default: Optional[int] = None) -> Optional[int]:
    """Number of seeds per sweep point, overridable via REPRO_BENCH_SEEDS."""
    value = os.environ.get("REPRO_BENCH_SEEDS")
    if value is None:
        return default
    return int(value)


def bench_jobs() -> int:
    """Worker processes per sweep, overridable via REPRO_BENCH_JOBS."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    if jobs < 1:
        raise ValueError(f"REPRO_BENCH_JOBS must be at least 1, got {jobs}")
    return jobs


def run_figure_benchmark(
    benchmark,
    spec: ExperimentSpec,
    *,
    x_values: Optional[Sequence[float]] = None,
    variants: Sequence[str] = ("maodv", "gossip"),
    seeds: Optional[int] = None,
) -> ExperimentResult:
    """Run one figure sweep under pytest-benchmark and report its series."""
    scale = bench_scale()
    seeds = bench_seeds(seeds)
    if scale == "paper":
        x_values = list(spec.x_values)

    jobs = bench_jobs()

    def _run() -> ExperimentResult:
        trials = trials_for_spec(
            spec, scale=scale, seeds=seeds, x_values=x_values, variants=variants
        )
        return aggregate_experiment(spec, run_campaign(trials, jobs=jobs))

    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    _record(benchmark, result)
    print()
    print(result.to_table())
    return result


def _record(benchmark, result: ExperimentResult) -> None:
    benchmark.extra_info["figure"] = result.spec_figure
    benchmark.extra_info["scale"] = bench_scale()
    benchmark.extra_info["jobs"] = bench_jobs()
    for point in result.points:
        key = f"{point.variant}@{point.x}"
        benchmark.extra_info[key] = {
            "mean": round(point.mean, 2),
            "min": round(point.minimum, 2),
            "max": round(point.maximum, 2),
            "delivery_ratio": round(point.delivery_ratio, 4),
            "goodput": round(point.goodput, 2),
        }


def assert_gossip_improves_delivery(
    result: ExperimentResult, slack: float = 0.0, per_point_factor: float = 0.75
) -> None:
    """The paper's headline shape: AG does not degrade MAODV's delivery.

    Two checks are applied:

    * aggregated over the whole sweep, the gossip variant delivers at least as
      many packets per member as plain MAODV (minus ``slack`` per point);
    * at every individual point the gossip mean stays above
      ``per_point_factor`` of the MAODV mean -- quick-scale single-seed runs
      of very sparse topologies are partition-dominated and noisy, so the
      per-point requirement is deliberately looser than the aggregate one.
    """
    maodv_points = {point.x: point for point in result.points_for("maodv")}
    gossip_points = result.points_for("gossip")
    paired = [
        (gossip_point, maodv_points[gossip_point.x])
        for gossip_point in gossip_points
        if gossip_point.x in maodv_points
    ]
    if not paired:
        return
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


@pytest.fixture
def figure_runner():
    """Fixture exposing :func:`run_figure_benchmark` to the benchmark modules."""
    return run_figure_benchmark
