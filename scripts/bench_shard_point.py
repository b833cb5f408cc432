#!/usr/bin/env python3
"""The sharded-engine scale point: a fig7-style fleet at 1k+ nodes.

Times one fixed-range node-count geometry (the paper's fig. 7 law with the
area scaled to keep node degree ~15 at large fleets) through up to three
engines:

* ``unsharded``   -- the classic single-heap engine (the reference),
* ``sequential``  -- the sharded engine's exact mode (proves invariance at
  scale; its per-shard event counts are the partition-balance record),
* ``process``     -- one OS process per shard (the speedup mode).

The workload is flooding with gossip off: broadcast-dominant traffic is
the parallel mode's honest territory (cross-shard unicast ACKs cannot meet
the MAC's 1.5 ms timeout across a sync window -- see README "Sharded
engine").  Writes a JSON artifact with wall times, events/sec, per-shard
event counts, sync-round overhead and the end-to-end speedup.

With ``--obs`` every mode runs instrumented (metrics registry, flight
recorder, engine sampler -- the process mode merges per-worker telemetry
into one snapshot) and ``--report-out`` writes the rendered telemetry
report of the last instrumented mode, which CI uploads next to the timing
artifact.

Usage::

    PYTHONPATH=src python scripts/bench_shard_point.py --out BENCH_shard.json
        [--nodes 1000] [--shards 4] [--duration 30] [--modes unsharded
        sequential process] [--rounds 1] [--obs] [--memory]
        [--report-out REPORT.txt]

``--memory`` adds per-worker setup wall time and peak RSS
(``resource.getrusage``) for the process mode, so the shard-local
construction win is measurable even on a single-core container.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.obs import ObsConfig
from repro.obs.report import render_report
from repro.workload.scenario import ScenarioConfig, run_scenario


def build_config(nodes: int, duration_s: float, seed: int, **overrides) -> ScenarioConfig:
    """The fig7-style geometry at ``nodes``, constant ~15 expected degree.

    Fig. 7 pins the range at 55 m; scale the area with the fleet instead
    (the paper's 200 m x 200 m holds 40 nodes) so regions stay much larger
    than the interference range at every shard count measured here.
    """
    area = 200.0 * math.sqrt(nodes / 40.0)
    params = dict(
        num_nodes=nodes,
        member_count=max(2, nodes // 10),
        area_width_m=area,
        area_height_m=area,
        transmission_range_m=55.0,
        protocol="flooding",
        gossip_enabled=False,
        max_speed_mps=1.0,
        max_pause_s=10.0,
        join_window_s=4.0,
        source_start_s=8.0,
        source_stop_s=max(10.0, duration_s - 6.0),
        packet_interval_s=0.5,
        duration_s=duration_s,
        seed=seed,
    )
    params.update(overrides)
    return ScenarioConfig.quick(**params)


def time_mode(config: ScenarioConfig, rounds: int) -> tuple:
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_scenario(config)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    record = {
        "wall_s": round(best, 3),
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_processed / best, 1),
        "delivery_ratio": round(result.delivery_ratio, 4),
        "packets_sent": result.packets_sent,
    }
    if result.shard_stats is not None:
        stats = result.shard_stats
        record["events_by_shard"] = {
            str(shard): count
            for shard, count in sorted(stats["events_by_shard"].items())
        }
        if "window_s" in stats:
            record["sync_window_s"] = stats["window_s"]
            record["sync_rounds"] = stats["sync_rounds"]
            record["records_exchanged"] = stats["records_exchanged"]
            record["records_shipped"] = stats["records_shipped"]
            record["records_filtered"] = stats["records_filtered"]
            record["halo_by_shard"] = {
                str(shard): size
                for shard, size in sorted(stats["halo_by_shard"].items())
            }
            record["foreign"] = stats["foreign"]
    return record, result


def memory_record(result) -> dict:
    """Per-worker setup time and peak RSS of a process-mode result.

    Each shard reports its own worker process's ``ru_maxrss``.
    """
    stats = result.shard_stats
    setup = stats["setup_s_by_shard"]
    rss = stats["peak_rss_kb_by_shard"]
    return {
        "setup_s_by_shard": {
            str(shard): round(value, 3) for shard, value in sorted(setup.items())
        },
        "setup_s_max": round(max(setup.values()), 3),
        "peak_rss_kb_by_shard": {
            str(shard): value for shard, value in sorted(rss.items())
        },
        "peak_rss_kb_max": max(rss.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--modes", nargs="*",
                        default=["unsharded", "sequential", "process"],
                        choices=["unsharded", "sequential", "process"])
    parser.add_argument("--obs", action="store_true",
                        help="instrument every mode (the process mode merges "
                             "per-worker telemetry into one snapshot)")
    parser.add_argument("--memory", action="store_true",
                        help="record per-worker setup wall time and peak RSS "
                             "for the process mode (one ru_maxrss per worker "
                             "process)")
    parser.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the rendered telemetry report of the "
                             "last instrumented mode to PATH (implies --obs)")
    parser.add_argument("--out", default=None, help="JSON artifact path")
    args = parser.parse_args()
    obs = args.obs or args.report_out is not None

    extra = {"obs_config": ObsConfig(enabled=True)} if obs else {}
    base = build_config(args.nodes, args.duration, args.seed, **extra)
    results = {}
    telemetry = None
    telemetry_mode = None
    for mode in args.modes:
        if mode == "unsharded":
            config = base
        else:
            config = build_config(
                args.nodes, args.duration, args.seed,
                shards=args.shards, shard_mode=mode, **extra,
            )
        print(f"[{mode}] nodes={args.nodes} shards="
              f"{args.shards if mode != 'unsharded' else 1} ...", flush=True)
        record, result = time_mode(config, args.rounds)
        if args.memory and mode == "process":
            record["memory"] = memory_record(result)
            print(f"[{mode}] setup "
                  f"{record['memory']['setup_s_max']} s/worker (max), "
                  f"peak RSS {record['memory']['peak_rss_kb_max']} kB "
                  f"(per worker process)", flush=True)
        results[mode] = record
        if result.telemetry is not None:
            telemetry = result.telemetry
            telemetry_mode = mode
        print(f"[{mode}] {record['wall_s']} s, "
              f"{record['events_per_sec']:,.0f} ev/s, "
              f"{record['events_processed']} events, "
              f"delivery {record['delivery_ratio']:.2%}", flush=True)

    artifact = {
        "bench": "shard_point",
        "nodes": args.nodes,
        "shards": args.shards,
        "duration_s": args.duration,
        "seed": args.seed,
        "results": results,
    }
    reference = results.get("unsharded")
    if reference:
        if "process" in results:
            artifact["process_speedup"] = round(
                reference["wall_s"] / results["process"]["wall_s"], 3
            )
            print(f"process speedup over unsharded: "
                  f"{artifact['process_speedup']:.2f}x")
        if "sequential" in results:
            # The exact mode never aims to be faster; record its overhead
            # and its invariance at scale (same event count = same run).
            artifact["sequential_overhead"] = round(
                results["sequential"]["wall_s"] / reference["wall_s"], 3
            )
            same = (results["sequential"]["events_processed"]
                    == reference["events_processed"])
            artifact["sequential_matches_unsharded"] = same
            print(f"sequential overhead: "
                  f"{artifact['sequential_overhead']:.2f}x; "
                  f"event count {'matches' if same else 'DIVERGES FROM'} "
                  f"unsharded")
            if not same:
                return 1

    if args.report_out and telemetry is not None:
        title = (f"shard_point nodes={args.nodes} shards={args.shards} "
                 f"mode={telemetry_mode}")
        with open(args.report_out, "w") as handle:
            handle.write(render_report(telemetry, title=title) + "\n")
        print(f"telemetry report written to {args.report_out}")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"artifact written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
