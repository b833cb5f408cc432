"""Command-line interface.

Five subcommands cover the common workflows::

    python -m repro run --profile quick --range 55 --speed 2 --gossip
    python -m repro figure fig2 --scale quick --seeds 2
    python -m repro campaign fig2 --jobs 4 --out fig2.jsonl --resume
    python -m repro report telemetry.json
    python -m repro list-figures

``run`` executes a single scenario and prints its delivery summary;
``figure`` regenerates one of the paper's figures (MAODV vs MAODV + AG
series) serially and in-process; ``campaign`` runs the same sweeps through
the parallel, resumable campaign subsystem (``--jobs`` worker processes, one
JSONL record per trial in ``--out``, ``--resume`` to skip already-stored
trials); ``report`` renders the telemetry of an instrumented run (``run
--obs``/``campaign --obs``) from a snapshot JSON or a campaign store
(``--merged`` folds a whole store into one campaign-wide snapshot), and
``--diff A B`` renders the delta between any two of those; ``list-figures``
shows which figures are available.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List, Optional, Sequence

from repro.campaign import (
    ResultStore,
    TelemetryAggregator,
    TrialRecord,
    aggregate_experiment,
    aggregate_goodput,
    run_campaign,
    trials_for_goodput,
    trials_for_spec,
)
from repro.experiments.figures import all_figures
from repro.experiments.runner import run_experiment
from repro.experiments.variants import variant_names
from repro.membership.config import ChurnConfig
from repro.metrics.reporting import format_rows
from repro.mobility.config import MOBILITY_MODELS, MobilityConfig
from repro.obs import ObsConfig
from repro.obs.report import render_report, report_json
from repro.workload.scenario import Scenario, ScenarioConfig


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anonymous Gossip (ICDCS 2001) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a single scenario")
    run_parser.add_argument("--profile", choices=("quick", "paper"), default="quick")
    run_parser.add_argument("--nodes", type=int, default=None, help="number of nodes")
    run_parser.add_argument("--members", type=int, default=None, help="number of group members")
    run_parser.add_argument("--range", type=float, default=None, dest="range_m",
                            help="transmission range in metres")
    run_parser.add_argument("--speed", type=float, default=None,
                            help="maximum node speed in m/s")
    run_parser.add_argument("--mobility", choices=MOBILITY_MODELS,
                            default="random_waypoint",
                            help="mobility model of the fleet (default "
                                 "random_waypoint, the paper's)")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--protocol", choices=("maodv", "flooding", "odmrp"), default="maodv")
    run_parser.add_argument("--groups", type=int, default=1,
                            help="number of concurrent multicast groups (default 1)")
    run_parser.add_argument("--churn", choices=("none", "poisson", "onoff", "flash"),
                            default="none",
                            help="dynamic-membership model (default none: static members)")
    run_parser.add_argument("--churn-rate", type=float, default=6.0,
                            help="membership events per minute: per group for "
                                 "poisson, per member for onoff (ignored by flash)")
    run_parser.add_argument("--churn-correlated", action="store_true",
                            help="onoff only: one session clock per device -- a "
                                 "session end leaves all of the node's groups")
    gossip_group = run_parser.add_mutually_exclusive_group()
    gossip_group.add_argument("--gossip", dest="gossip", action="store_true", default=True,
                              help="enable Anonymous Gossip (default)")
    gossip_group.add_argument("--no-gossip", dest="gossip", action="store_false",
                              help="disable Anonymous Gossip")
    run_parser.add_argument("--shards", type=int, default=1,
                            help="spatial regions of the region-sharded "
                                 "engine (default 1: the classic "
                                 "single-calendar engine)")
    run_parser.add_argument("--shard-mode",
                            choices=("sequential", "process"),
                            default="sequential",
                            help="shard execution mode: sequential (exact, "
                                 "bit-identical to unsharded) or process "
                                 "(one OS process per shard; the speedup "
                                 "mode)")
    run_parser.add_argument("--shard-window", type=float, default=None,
                            metavar="SECONDS",
                            help="conservative sync window override for the "
                                 "process shard mode (default: derived "
                                 "from radio range / fleet speed bound)")
    run_parser.add_argument("--obs", action="store_true",
                            help="instrument the run (metrics registry, flight "
                                 "recorder, engine sampler) and print a "
                                 "telemetry report")
    run_parser.add_argument("--obs-out", default=None, metavar="PATH",
                            help="write the telemetry snapshot as JSON to PATH "
                                 "instead of printing the text report "
                                 "(implies --obs)")
    run_parser.add_argument("--obs-dump", default=None, metavar="PATH",
                            help="dump the flight-recorder ring to PATH as "
                                 "JSONL after the run (implies --obs)")

    figure_parser = subparsers.add_parser("figure", help="reproduce one paper figure")
    _add_sweep_arguments(figure_parser)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a figure sweep as a parallel, resumable campaign",
        description="Flatten one figure sweep into independent trials, run "
                    "them across worker processes, and aggregate the results. "
                    "With --out every completed trial is appended to a JSONL "
                    "store; with --resume trials already in the store are "
                    "skipped, so an interrupted campaign picks up where it "
                    "left off.",
    )
    _add_sweep_arguments(campaign_parser)
    campaign_parser.add_argument("--jobs", type=int, default=1,
                                 help="number of worker processes (default 1: serial)")
    campaign_parser.add_argument("--out", default=None,
                                 help="JSONL result store; one record per completed trial")
    campaign_parser.add_argument("--resume", action="store_true",
                                 help="skip trials already present in --out")
    campaign_parser.add_argument("--obs", action="store_true",
                                 help="instrument every trial; each stored "
                                      "record then carries its telemetry "
                                      "snapshot (render with `repro report`)")

    report_parser = subparsers.add_parser(
        "report",
        help="render the telemetry of an instrumented run",
        description="Render a telemetry snapshot (run --obs-out JSON) or the "
                    "telemetry carried by an instrumented campaign store "
                    "(campaign --obs --out store.jsonl): metric tree, fan-out "
                    "histogram, kinetic-window hit rate, phase breakdown and "
                    "top-N fan-out offenders.  --merged folds a whole store "
                    "into one campaign-wide snapshot; --diff renders the delta "
                    "between two snapshots/stores.",
    )
    report_parser.add_argument("path", help="telemetry JSON or campaign JSONL store")
    report_parser.add_argument("other", nargs="?", default=None,
                               help="second snapshot/store (--diff only)")
    report_parser.add_argument("--key", default=None,
                               help="trial key to report from a campaign store "
                                    "(default: the first instrumented record); "
                                    "with --merged, a substring filter on keys")
    report_parser.add_argument("--merged", action="store_true",
                               help="fold every instrumented trial of a campaign "
                                    "store into one campaign-wide snapshot")
    report_parser.add_argument("--diff", action="store_true",
                               help="render the telemetry delta PATH -> OTHER "
                                    "instead of a single report")
    report_parser.add_argument("--top", type=int, default=10,
                               help="number of fan-out offenders shown (default 10)")
    report_parser.add_argument("--json", action="store_true", dest="as_json",
                               help="emit the report as JSON instead of text")

    subparsers.add_parser("list-figures", help="list the reproducible figures")
    return parser


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figure", choices=sorted(all_figures()))
    parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--points", type=float, nargs="*", default=None,
                        help="subset of x values to run")
    parser.add_argument(
        "--variants", nargs="*", default=None,
        help="protocol variants to compare (default: maodv gossip): "
             + ", ".join(variant_names()),
    )


def _command_run(args: argparse.Namespace) -> int:
    obs_enabled = args.obs or args.obs_out is not None or args.obs_dump is not None
    overrides = {"seed": args.seed, "protocol": args.protocol, "gossip_enabled": args.gossip}
    if obs_enabled:
        overrides["obs_config"] = ObsConfig(enabled=True)
    if args.groups != 1:
        overrides["group_count"] = args.groups
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.members is not None:
        overrides["member_count"] = args.members
    if args.range_m is not None:
        overrides["transmission_range_m"] = args.range_m
    if args.speed is not None:
        overrides["max_speed_mps"] = args.speed
    if args.mobility != "random_waypoint":
        overrides["mobility_config"] = MobilityConfig(model=args.mobility)
    if args.shards != 1:
        overrides["shards"] = args.shards
        overrides["shard_mode"] = args.shard_mode
        if args.shard_window is not None:
            overrides["shard_window_s"] = args.shard_window
    if args.profile == "paper":
        config = ScenarioConfig.paper(**overrides)
    else:
        config = ScenarioConfig.quick(**overrides)
    if args.churn != "none":
        if args.churn in ("poisson", "onoff") and args.churn_rate <= 0:
            print(f"--churn-rate must be positive for {args.churn} churn",
                  file=sys.stderr)
            return 2
        # Churn starts once the scenario's initial joins are done, so the
        # models sample real membership state.
        start_s = config.join_window_s
        if args.churn == "flash":
            # A sensible default flash crowd: a quarter of the fleet joins
            # mid-way through the source phase (the flash instant is explicit,
            # so no churn window applies).
            churn = ChurnConfig(
                model="flash",
                flash_at_s=(config.source_start_s + config.source_stop_s) / 2.0,
                flash_joiners=max(2, config.num_nodes // 4),
                min_members=2,
            )
        elif args.churn == "onoff":
            # ~churn-rate membership events per member per minute: a node in
            # symmetric on/off sessions of mean m toggles 60/m times a minute.
            session_s = 60.0 / args.churn_rate
            churn = ChurnConfig(
                model="onoff", start_s=start_s, mean_on_s=session_s,
                mean_off_s=session_s, min_members=2,
                onoff_correlated=args.churn_correlated,
            )
        else:
            churn = ChurnConfig(
                model="poisson", start_s=start_s,
                events_per_minute=args.churn_rate, min_members=2,
            )
        config = dataclasses.replace(config, churn_config=churn)

    if config.shards > 1 and config.shard_mode == "process":
        # The parallel shard mode runs through the shard driver (which
        # rejects churn); the sequential mode runs in-process like
        # everything else.
        from repro.workload.scenario import run_scenario

        scenario = None
        result = run_scenario(config)
    else:
        scenario = Scenario(config)
        result = scenario.run()
    summary = result.summary
    label = config.protocol + (" + gossip" if config.gossip_enabled else "")
    print(format_rows(
        ["protocol", "sent", "mean", "min", "max", "std", "delivery", "goodput"],
        [[
            label,
            summary.packets_sent,
            f"{summary.mean:.1f}",
            summary.minimum,
            summary.maximum,
            f"{summary.std:.1f}",
            f"{100 * summary.delivery_ratio:.1f}%",
            f"{result.mean_goodput:.1f}%",
        ]],
    ))
    if len(result.group_summaries) > 1:
        # "members seen": every node that held a subscription at some point
        # during the run (grows with churn, not the configured group size).
        print(format_rows(
            ["group", "sent", "mean", "delivery", "members seen"],
            [
                [
                    group_index,
                    group_summary.packets_sent,
                    f"{group_summary.mean:.1f}",
                    f"{100 * group_summary.delivery_ratio:.1f}%",
                    len(group_summary.member_counts),
                ]
                for group_index, group_summary in sorted(result.group_summaries.items())
            ],
        ))
    if result.membership_events:
        print(f"membership events applied: {result.membership_events}")
    print(f"events processed: {result.events_processed}")
    if result.shard_stats is not None:
        stats = result.shard_stats
        shares = ", ".join(
            f"{shard}:{count}"
            for shard, count in sorted(stats["events_by_shard"].items())
        )
        line = f"shards: {stats['shards']} ({stats['mode']}), events by shard: {shares}"
        if "window_s" in stats:
            line += (
                f", sync window {stats['window_s'] * 1000:.1f} ms"
                f" x {stats['sync_rounds']} rounds,"
                f" {stats['records_exchanged']} boundary records"
            )
        print(line)
    if obs_enabled and result.telemetry is not None:
        if args.obs_dump is not None:
            if scenario is not None:
                dumped = scenario.obs.dump_recorder(args.obs_dump)
            else:
                # Parallel shard run: the per-worker rings are gone, but the
                # merged telemetry carries their interleaved events.
                events = result.telemetry.get("recorder_events") or []
                with open(args.obs_dump, "w", encoding="utf-8") as handle:
                    for event in events:
                        handle.write(json.dumps(event, separators=(",", ":")) + "\n")
                dumped = len(events)
            print(f"flight recorder: {dumped} events dumped to {args.obs_dump}")
        if args.obs_out is not None:
            with open(args.obs_out, "w", encoding="utf-8") as handle:
                json.dump(result.telemetry, handle, indent=2)
            print(f"telemetry written to {args.obs_out}")
        else:
            print()
            print(render_report(result.telemetry, title="Telemetry"))
    return 0


#: Variants compared when ``--variants`` is not given.
DEFAULT_VARIANTS = ("maodv", "gossip")


def _check_variants(variants: Sequence[str]) -> Optional[str]:
    """Error message naming the known variants, or ``None`` when all valid."""
    unknown = [variant for variant in variants if variant not in variant_names()]
    if not unknown:
        return None
    bad = ", ".join(repr(variant) for variant in unknown)
    return f"unknown variant(s) {bad}; known variants: {', '.join(variant_names())}"


def _command_figure(args: argparse.Namespace) -> int:
    variants = tuple(args.variants) if args.variants is not None else DEFAULT_VARIANTS
    error = _check_variants(variants)
    if error:
        print(error, file=sys.stderr)
        return 2
    spec = all_figures()[args.figure]
    result = run_experiment(
        spec,
        scale=args.scale,
        seeds=args.seeds,
        x_values=args.points,
        variants=variants,
    )
    print(result.to_table())
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    error = _check_variants(args.variants if args.variants is not None else DEFAULT_VARIANTS)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.resume and not args.out:
        print("--resume requires --out (the store to resume from)", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    spec = all_figures()[args.figure]
    goodput_mode = spec.combinations is not None
    if goodput_mode:
        if args.points is not None or args.variants is not None:
            print(f"{args.figure} is a goodput experiment; it always runs the "
                  "gossip variant over its fixed (range, speed) combinations, "
                  "so --points/--variants do not apply", file=sys.stderr)
            return 2
        trials = trials_for_goodput(spec, scale=args.scale, seeds=args.seeds)
    else:
        variants = tuple(args.variants) if args.variants is not None else DEFAULT_VARIANTS
        trials = trials_for_spec(
            spec,
            scale=args.scale,
            seeds=args.seeds,
            x_values=args.points,
            variants=variants,
        )
    if args.obs:
        trials = [
            dataclasses.replace(
                trial,
                config=dataclasses.replace(
                    trial.config, obs_config=ObsConfig(enabled=True)
                ),
            )
            for trial in trials
        ]

    store = None
    if args.out:
        store = ResultStore(args.out)
        if store.exists() and not args.resume:
            print(f"{args.out} already exists; pass --resume to continue it "
                  "or choose a fresh --out path", file=sys.stderr)
            return 2

    started = time.time()

    def progress(done: int, total: int, record: Optional[TrialRecord]) -> None:
        elapsed = time.time() - started
        if record is None:
            if done:
                print(f"[{elapsed:7.1f}s] resume: {done}/{total} trials already stored",
                      flush=True)
            return
        print(
            f"[{elapsed:7.1f}s] [{done}/{total}] {record.campaign} "
            f"x={record.x:g} variant={record.variant} seed={record.seed} "
            f"mean={record.metrics['mean']:.1f} "
            f"ratio={record.metrics['delivery_ratio']:.3f}",
            flush=True,
        )

    aggregator = TelemetryAggregator() if args.obs else None
    records = run_campaign(trials, jobs=args.jobs, store=store,
                           progress=progress, telemetry=aggregator)

    if goodput_mode:
        goodput = aggregate_goodput(spec, records)
        rows = []
        for (range_m, speed), per_member in goodput.items():
            values = list(per_member.values())
            rows.append([
                f"{range_m:g}m @ {speed:g}m/s",
                f"{sum(values) / len(values):.2f}" if values else "n/a",
                f"{min(values):.2f}" if values else "n/a",
                f"{max(values):.2f}" if values else "n/a",
                len(values),
            ])
        print(spec.title)
        print(format_rows(["combination", "mean", "min", "max", "members"], rows))
    else:
        print(aggregate_experiment(spec, records).to_table())
    if store is not None:
        print(f"results stored in {args.out}")
    if aggregator is not None and aggregator.trials:
        print(f"telemetry merged across {aggregator.trials} instrumented trials"
              + (f"; render with `repro report {args.out} --merged`"
                 if args.out else ""))
    return 0


def _load_telemetry(path: str, key: Optional[str], merged: bool = False) -> tuple:
    """Resolve ``path`` to one telemetry snapshot.

    Returns ``(telemetry, title, error)``; exactly one of telemetry/error is
    set.  Accepts a snapshot JSON (``run --obs-out``), a single stored trial
    record, or a campaign JSONL store -- where ``--key`` selects one trial (default the first
    instrumented record) and ``merged`` folds every instrumented trial into
    one campaign-wide snapshot (``--key`` then filters by substring).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return None, None, str(exc)
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and "telemetry" not in payload and (
        "metrics" in payload or "histograms" in payload
    ):
        return payload, path, None
    if isinstance(payload, dict) and payload.get("telemetry"):
        return payload["telemetry"], payload.get("key", path), None
    # A campaign JSONL store (or anything line-structured).
    store = ResultStore(path)
    if merged:
        from repro.campaign import merged_store_telemetry

        telemetry = merged_store_telemetry(store, key_filter=key) if text.strip() else None
        if telemetry is None:
            return None, None, (
                f"no instrumented records in {path}"
                + (f" matching {key!r}" if key is not None else "")
                + "; run with --obs"
            )
        trials = telemetry.get("merged", {}).get("trials", 0)
        return telemetry, f"{path} (merged, {trials} trials)", None
    records = store.records() if text.strip() else []
    if key is not None:
        for record in records:
            if record.key == key:
                if not record.telemetry:
                    return None, None, f"trial {key!r} carries no telemetry (run with --obs)"
                return record.telemetry, record.key, None
        return None, None, f"no trial with key {key!r} in {path}"
    for record in records:
        if record.telemetry:
            return record.telemetry, record.key, None
    return None, None, (
        f"no instrumented records in {path}; run with --obs, or pass a "
        "telemetry snapshot JSON"
    )


def _command_report(args: argparse.Namespace) -> int:
    if args.diff and args.other is None:
        print("--diff needs two inputs: repro report --diff A B", file=sys.stderr)
        return 2
    if args.other is not None and not args.diff:
        print("a second path only makes sense with --diff", file=sys.stderr)
        return 2
    telemetry, title, error = _load_telemetry(args.path, args.key, merged=args.merged)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.diff:
        from repro.obs.report import render_diff

        other, other_title, error = _load_telemetry(
            args.other, args.key, merged=args.merged
        )
        if error:
            print(error, file=sys.stderr)
            return 2
        print(render_diff(telemetry, other, title_a=title, title_b=other_title,
                          top_n=args.top))
        return 0
    if args.as_json:
        print(json.dumps(report_json(telemetry, top_n=args.top), indent=2))
    else:
        print(render_report(telemetry, top_n=args.top, title=title))
    return 0


def _command_list_figures() -> int:
    rows = [
        [figure, spec.title, " ".join(str(x) for x in spec.x_values)]
        for figure, spec in sorted(all_figures().items())
    ]
    print(format_rows(["figure", "title", "x values"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "campaign":
        return _command_campaign(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "list-figures":
        return _command_list_figures()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
