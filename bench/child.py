"""One measured iteration, in a process of its own.

``python3 bench/child.py '<json spec>'`` runs one workload once and prints one
JSON object as its last line of output.  The spec keys:

``workload``, ``seed``, ``smoke``
    what to run (see :mod:`bench.workloads`);
``mode``
    ``"run"`` (default), ``"setup"`` (stop after set-up) or ``"kernels"``;
``profile``
    run the timed region under ``cProfile`` and return the layer table;
``obs``
    enable ``ObsConfig`` (and return the ``medium.*`` span totals);
``overrides``
    extra ``ScenarioConfig`` fields (the shard pair runs);
``whole_run``
    time ``run_scenario(config)``, build included (the shard pair baseline);
``jobs``
    ``run_campaign`` worker count (``campaign_quick`` only).

All times are raw host seconds, net of the time of the
:class:`~bench.reference.SpeedSampler` that read the machine's speed factor
all through them.  Every result carries those readings' means:
``setup_speed`` for set-up (sampled from the top of :func:`execute`, so all
but the few stdlib imports above it) and, when there was a timed run without
the profiler, ``speed`` and ``cpu_speed`` against the wall and the CPU clock;
the parent calibrates with them.  A workload that raises is reported as
``{"error": ...}``: the parent counts a failed operation, the run goes on.
"""

import time

_STARTED = time.perf_counter()  # the set-up clock starts before `import repro`

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent), str(_BENCH.parent / "src")]

from bench.reference import RUN_SLICES, SETUP_SLICES, SpeedSampler  # noqa: E402

#: Scratch space inside the checkout (git-ignored).
WORKDIR = _BENCH / ".work"

_MEDIUM_SPANNED = ("_transmit_batch", "_finish_batch", "_transmit_object", "_finish_transmission")


def sim_digest(events, packets_sent, member_counts, protocol_stats) -> str:
    """sha256 over the simulated outcome; host time never enters it."""
    payload = json.dumps(
        [events, packets_sent, sorted(member_counts.items()), sorted(protocol_stats.items())]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _timed(spec, body):
    """Run ``body()`` between the clocks: under the profiler when asked, else
    under the speed sampler (whose slices the profiler would book to layers)."""
    if not spec.get("profile"):
        sampler = SpeedSampler(RUN_SLICES)
        wall, cpu = time.perf_counter(), time.process_time()
        sampler.start()
        try:
            value = body()
        finally:
            sampler.stop()
        return value, {
            "wall_s": time.perf_counter() - wall - sampler.wall_s,
            "cpu_s": time.process_time() - cpu - sampler.cpu_s,
            "speed": sampler.speed(),
            "cpu_speed": sampler.cpu_speed(),
            "speed_samples": len(sampler.rates),
        }
    import cProfile

    import repro
    from bench import layers

    profiler = cProfile.Profile()
    wall, cpu = time.perf_counter(), time.process_time()
    profiler.enable()
    try:
        value = body()
    finally:
        profiler.disable()
    timing = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
    records = layers.profile_records(profiler)
    timing["layers"] = layers.attribute(records, str(Path(repro.__file__).resolve().parent))
    timing["medium_spanned_cum_s"] = layers.cumulative_s(records, _MEDIUM_SPANNED, "net/medium.py")
    return value, timing


def _setup_done(sampler) -> dict:
    """Stop the set-up clock and the sampler that ran beside it."""
    sampler.stop()
    setup_s = time.perf_counter() - _STARTED - sampler.wall_s
    return {"setup_s": setup_s, "setup_speed": sampler.speed()}


def _check(checks, name, ok):
    checks.append([name, bool(ok)])


def exact_counts(stats, protocol, events, packets_sent, delivery_ratio, goodput) -> dict:
    """The exact counts of :data:`bench.workloads.COUNTS` from protocol stats."""

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    get = lambda key: stats.get(key, 0)  # noqa: E731
    requests = get("gossip.anonymous_requests_sent") + get("gossip.cached_requests_sent")
    delivered = get(f"{protocol}.data_delivered")
    duplicates = get(f"{protocol}.data_duplicates")
    rejected = get(f"{protocol}.data_rejected_off_tree")
    return {
        "sim.engine.events": events,
        "net.medium.transmissions": get("medium.transmissions"),
        "net.medium.deliveries": get("medium.deliveries"),
        "net.medium.collisions": get("medium.collisions"),
        "net.medium.deliveries_per_tx": ratio(get("medium.deliveries"), get("medium.transmissions")),
        "net.mac.enqueued": get("mac.enqueued"),
        "net.mac.retransmissions": get("mac.retransmissions"),
        "net.mac.unicast_failures": get("mac.unicast_failures"),
        "net.mac.queue_drops": get("mac.queue_drops"),
        "net.mac.retry_ratio": ratio(get("mac.retransmissions"), get("mac.data_transmissions")),
        "routing.control_sent": sum(get(f"aodv.{name}") for name in (
            "hello_sent", "rreq_originated", "rreq_forwarded",
            "rrep_originated", "rrep_forwarded", "rerr_sent")),
        "routing.discovery_failures": get("aodv.discovery_failures"),
        "routing.data_dropped_no_route": get("aodv.data_dropped_no_route"),
        "multicast.data_forwarded": get(f"{protocol}.data_forwarded"),
        "multicast.data_duplicates": duplicates,
        "multicast.repairs_started": get(f"{protocol}.repairs_started"),
        "multicast.useful_ratio": ratio(delivered, delivered + duplicates + rejected),
        "core.rounds": get("gossip.rounds"),
        "core.requests_sent": requests,
        "core.recovered_messages": get("gossip.recovered_messages"),
        "core.duplicate_messages": get("gossip.duplicate_messages"),
        "core.recovered_per_request": ratio(get("gossip.recovered_messages"), requests),
        "core.goodput_pct": goodput,
        "metrics.delivery_ratio": delivery_ratio,
        "metrics.packets_sent": packets_sent,
        "campaign.trials": 0,
        "campaign.store_bytes": 0,
    }


def _check_result(checks, config, packets_sent, delivery_ratio, goodput):
    sources = config.sources_per_group * config.group_count
    _check(checks, "packets_sent", packets_sent == config.expected_packets * sources)
    _check(checks, "delivery_ratio_range", 0.0 <= delivery_ratio <= 1.0)
    _check(checks, "goodput_range", 0.0 <= goodput <= 100.0)


def run_scenario_workload(spec, setup_sampler) -> dict:
    from repro import Scenario, run_scenario
    from repro.obs import ObsConfig
    from bench import workloads

    overrides = dict(spec.get("overrides") or {})
    if spec.get("obs"):
        overrides["obs_config"] = ObsConfig(enabled=True)
    config = workloads.scenario_config(
        spec["workload"], spec["seed"], spec.get("smoke", False), **overrides)
    parallel = config.shards > 1 and config.shard_mode != "sequential"
    # The parallel shard modes build inside run_sharded(); their set-up is
    # then part of wall_s, which is what the shard pair compares.
    scenario = None if parallel or spec.get("whole_run") else Scenario(config).build()
    out = _setup_done(setup_sampler)
    if spec.get("mode") == "setup":
        return out
    result, timing = _timed(
        spec, scenario.run if scenario is not None else (lambda: run_scenario(config)))
    out.update(timing)
    checks = out["checks"] = []
    _check_result(checks, config, result.packets_sent, result.delivery_ratio, result.mean_goodput)
    out["events"] = result.events_processed
    out["digest"] = sim_digest(
        result.events_processed, result.packets_sent, result.member_counts, result.protocol_stats)
    out["counts"] = exact_counts(
        result.protocol_stats, config.protocol, result.events_processed, result.packets_sent,
        result.delivery_ratio, result.mean_goodput)
    if result.telemetry:
        spans = result.telemetry.get("spans", {})
        out["medium_span_s"] = sum(
            spans.get(name, {}).get("total_s", 0.0) for name in ("medium.fanout", "medium.teardown"))
    return out


def run_campaign_workload(spec, setup_sampler) -> dict:
    from repro.campaign import ResultStore, aggregate_experiment, run_campaign
    from bench import workloads

    spec_fig, trials = workloads.campaign_trials(spec["seed"], spec.get("smoke", False))
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        store = ResultStore(Path(tmp) / "campaign.jsonl")
        out = _setup_done(setup_sampler)
        if spec.get("mode") == "setup":
            return out
        rerun = []

        def sequence():
            records = run_campaign(trials, jobs=spec.get("jobs", 1), store=store)
            aggregate = aggregate_experiment(spec_fig, records)
            resumed = run_campaign(
                trials, jobs=1, store=store,
                progress=lambda done, total, record: record is not None and rerun.append(record),
            )
            return records, aggregate, resumed

        (records, aggregate, resumed), timing = _timed(spec, sequence)
        out.update(timing)
        checks = out["checks"] = []
        _check(checks, "one_record_per_trial", [r.key for r in records] == [t.key for t in trials])
        _check(checks, "resume_runs_nothing", not rerun)
        _check(checks, "resume_equal_records", resumed == records)
        loaded = store.load()
        _check(checks, "store_round_trip", [loaded.get(r.key) for r in records] == records)
        _check(checks, "aggregate_from_store",
               aggregate_experiment(spec_fig, [loaded[t.key] for t in trials if t.key in loaded])
               == aggregate)
        for trial, record in zip(trials, records):
            metrics = record.metrics
            _check_result(checks, trial.config, metrics["packets_sent"],
                          metrics["delivery_ratio"], metrics["goodput"])
        out["events"] = sum(int(r.metrics["events_processed"]) for r in records)
        out["digest"] = hashlib.sha256("".join(
            sim_digest(r.metrics["events_processed"], r.metrics["packets_sent"],
                       r.member_counts, r.protocol_stats)
            for r in records).encode("ascii")).hexdigest()
        summed = {}
        for record in records:
            for name, value in record.protocol_stats.items():
                summed[name] = summed.get(name, 0) + value
        out["counts"] = exact_counts(
            summed, "maodv", out["events"],
            sum(r.metrics["packets_sent"] for r in records),
            sum(r.metrics["delivery_ratio"] for r in records) / len(records),
            sum(r.metrics["goodput"] for r in records) / len(records))
        out["counts"].update({
            "campaign.trials": len(records),
            "campaign.store_bytes": store.path.stat().st_size,
        })
    return out


def execute(spec) -> dict:
    """Run ``spec`` and return its result; never raises for a failed workload."""
    setup_sampler = SpeedSampler(SETUP_SLICES)
    try:
        if spec.get("mode") == "kernels":
            from bench import kernels

            WORKDIR.mkdir(exist_ok=True)
            out = {"kernels": kernels.run_all(spec["seed"], WORKDIR, spec.get("smoke", False))}
        else:
            setup_sampler.start()
            from bench import workloads

            run = run_campaign_workload if spec["workload"] in workloads.CAMPAIGN \
                else run_scenario_workload
            out = run(spec, setup_sampler)
    except Exception:  # boundary: a failed run is a failed operation, not an abort
        out = {"error": traceback.format_exc()}
    finally:
        setup_sampler.stop()  # a set-up that raised left it running
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    print(json.dumps(execute(json.loads(sys.argv[1]))))
