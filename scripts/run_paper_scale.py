#!/usr/bin/env python3
"""Run a paper-scale subset of every figure sweep and dump the measurements.

A paper-scale point costs 2-6 s of wall, so the full 10-seed sweeps of
fig2-7 (1,040 trials) are about an hour at ``--jobs 2`` -- run those with
``python -m repro campaign``.  This script is the minutes-long version: a
representative subset (a few x values, 1-2 seeds) at the exact paper-scale
parameters (600 s, 40+ nodes, 2201 packets).  It prints each figure's table
as it completes and writes a JSON report (``output_path``, default
``paper_scale_results.json``): per figure its title and one row per
(x, variant) -- mean/min/max packets received, delivery ratio, goodput,
packets sent -- and, for fig8, per-member goodput per (range, speed)
combination.

Trials run through the campaign subsystem (:mod:`repro.campaign`): ``--jobs``
fans the independent runs out over worker processes, and ``--store`` appends
one JSONL record per completed trial so a killed run can be resumed by
re-invoking the script with the same ``--store`` path (already-completed
trials are skipped).

Usage::

    python scripts/run_paper_scale.py [output_path] [--seeds N] [--jobs N]
                                      [--store trials.jsonl]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.campaign import ResultStore
from repro.experiments.figures import all_figures
from repro.experiments.runner import run_experiment, run_goodput_experiment

SUBSET = {
    "fig2": [45, 65, 85],
    "fig3": [45, 65, 85],
    "fig4": [0.2, 0.6, 1.0],
    "fig5": [2.0, 6.0, 10.0],
    "fig6": [40, 70, 100],
    "fig7": [40, 70, 100],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="paper_scale_results.json")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the campaign executor")
    parser.add_argument("--store", default=None,
                        help="JSONL trial store; re-running with the same "
                             "path resumes an interrupted sweep")
    args = parser.parse_args()

    store = ResultStore(args.store) if args.store else None
    figures = all_figures()
    report = {"seeds": args.seeds, "jobs": args.jobs, "figures": {}}
    started = time.time()
    for figure, x_values in SUBSET.items():
        spec = figures[figure]
        print(f"[{time.time() - started:7.1f}s] running {figure} at {x_values} "
              f"(jobs={args.jobs}) ...", flush=True)
        result = run_experiment(
            spec, scale="paper", seeds=args.seeds, x_values=x_values,
            variants=("maodv", "gossip"), jobs=args.jobs, store=store,
        )
        report["figures"][figure] = {
            "title": result.title,
            "points": [
                {
                    "x": point.x,
                    "variant": point.variant,
                    "mean": round(point.mean, 1),
                    "min": round(point.minimum, 1),
                    "max": round(point.maximum, 1),
                    "delivery_ratio": round(point.delivery_ratio, 3),
                    "goodput": round(point.goodput, 1),
                    "packets_sent": round(point.packets_sent, 1),
                }
                for point in sorted(result.points, key=lambda p: (p.x, p.variant))
            ],
        }
        print(result.to_table(), flush=True)

    print(f"[{time.time() - started:7.1f}s] running fig8 goodput ...", flush=True)
    goodput = run_goodput_experiment(
        figures["fig8"], scale="paper", seeds=args.seeds, jobs=args.jobs, store=store,
    )
    report["figures"]["fig8"] = {
        "title": "Gossip goodput per member",
        "combinations": {
            f"{range_m:.0f}m,{speed}m/s": {
                "mean": round(sum(values.values()) / len(values), 2),
                "min": round(min(values.values()), 2),
                "max": round(max(values.values()), 2),
                "members": len(values),
            }
            for (range_m, speed), values in goodput.items()
        },
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"[{time.time() - started:7.1f}s] wrote {args.output}", flush=True)


if __name__ == "__main__":
    main()
