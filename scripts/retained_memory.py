#!/usr/bin/env python3
"""What a benchmark workload's run keeps in memory, and where it was allocated.

Usage::

    python scripts/retained_memory.py --workload W [--top N] [--smoke] \
        [--set FIELD=VALUE ...]

Builds one ``bench/`` workload at seed 1 (``bench.workloads.scenario_config``
or ``campaign_trials``, read-only) and runs it once, under ``tracemalloc``.
Each ``--set`` overrides one ``ScenarioConfig`` field (the value is a Python
literal, else a string), e.g. ``--set duration_s=1800 --set
source_stop_s=1790`` to see what a longer run keeps.
Prints the traced totals after the build and after the run -- the live bytes
and the peak so far -- then the ``N`` allocation sites holding the most bytes
still alive at the end of the run, with their block counts.  Tracing starts
before ``import repro``, so module-level tables count too; tracemalloc slows
the run several-fold, which is why this is a separate script and not a
benchmark metric.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _mb(size: int) -> str:
    return f"{size / 2**20:.2f} MB"  # 2**20 bytes, as the benchmark's peak_rss_mb


def _totals(label: str) -> None:
    current, peak = tracemalloc.get_traced_memory()
    print(f"{label}: {_mb(current)} live, {_mb(peak)} peak")


def _override(text: str):
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected FIELD=VALUE, got {text!r}")
    try:
        return name, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--top", type=int, default=10, help="sites to list (default 10)")
    parser.add_argument("--smoke", action="store_true", help="the workload at toy size")
    parser.add_argument("--set", type=_override, action="append", default=[],
                        metavar="FIELD=VALUE", help="override a ScenarioConfig field (repeatable)")
    args = parser.parse_args(argv)
    overrides = dict(args.set)

    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    tracemalloc.start()
    try:
        campaign = args.workload in workloads.CAMPAIGN
        try:
            if campaign:
                _, trials = workloads.campaign_trials(
                    workloads.PINNED_SEED, args.smoke, **overrides)
            else:
                config = workloads.scenario_config(
                    args.workload, workloads.PINNED_SEED, args.smoke, **overrides)
        except TypeError as error:  # a --set field ScenarioConfig does not have
            parser.error(str(error))
        if campaign:
            from repro.campaign import run_campaign

            run = lambda: run_campaign(trials, jobs=1)  # noqa: E731
        else:
            from repro import Scenario

            run = Scenario(config).build().run
        _totals("after build")
        result = run()  # noqa: F841 -- kept alive: its tables are what the run retains
        _totals("after run")
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)])
    finally:
        tracemalloc.stop()
    root = str(ROOT / "src") + "/"
    print(f"top {args.top} retained allocation sites:")
    for stat in snapshot.statistics("lineno")[: args.top]:
        frame = stat.traceback[0]
        print(f"  {_mb(stat.size):>10}  {stat.count:>8} blocks  "
              f"{frame.filename.replace(root, '')}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
