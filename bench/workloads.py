"""The benchmark's workloads: literal configs, sizes, pins and metric names.

Everything a later PR may cite lives here as data.  ``repro`` is imported
inside the builders only, so a child process can start its ``setup_s`` clock
before the first ``import repro``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

#: The default ``--seed``, and the only one with pinned sizes and digests.
PINNED_SEED = 1

#: ``ScenarioConfig.<profile>(**config, seed=S)``.  ``paper40_*`` is the
#: paper's reference point and is never shrunk.
SCENARIOS: Dict[str, Dict[str, object]] = {
    "paper40_ag": {"profile": "paper", "config": {}},
    "paper40_maodv": {"profile": "paper", "config": {"gossip_enabled": False}},
    "mover100_fast": {
        "profile": "quick",
        "config": {
            "num_nodes": 100,
            "member_count": 20,
            "area_width_m": 200.0,
            "area_height_m": 200.0,
            "transmission_range_m": 75.0,
            "join_window_s": 4.0,
            "source_start_s": 10.0,
            "source_stop_s": 56.0,
            "packet_interval_s": 0.5,
            "duration_s": 60.0,
            "min_speed_mps": 1.0,
            "max_speed_mps": 10.0,
            "max_pause_s": 0.0,
        },
    },
    "flood1k": {
        "profile": "quick",
        "config": {
            "num_nodes": 1000,
            "member_count": 100,
            "area_width_m": 1000.0,
            "area_height_m": 1000.0,
            "transmission_range_m": 55.0,
            "protocol": "flooding",
            "gossip_enabled": False,
            "max_speed_mps": 1.0,
            "max_pause_s": 10.0,
            "join_window_s": 4.0,
            "source_start_s": 8.0,
            "source_stop_s": 54.0,
            "packet_interval_s": 0.5,
            "duration_s": 60.0,
        },
    },
}

#: ``trials_for_spec(figure7_nodes_constant_range(), scale="quick", seeds=2)``
#: with the trial seeds moved to S, S+1: 7 x-values x 2 seeds x 2 variants.
CAMPAIGN = {"campaign_quick": {"scale": "quick", "seeds": 2, "trials": 28}}

WORKLOADS: List[str] = [*SCENARIOS, *CAMPAIGN]

#: Seed-1 simulated size and ``sim_digest`` of every workload at the commit
#: that defined the benchmark.  A mismatch is reported as
#: ``sim.digest_changed`` = 1, never as a failed operation: a speed-up that
#: moved simulated statistics must be visible, an honest model fix must not
#: read as a broken run.  (BENCHMARK.json cannot hold these: its keys are
#: fixed by the driver's contract.)
PINNED: Dict[str, Dict[str, object]] = {
    "paper40_ag": {
        "events": 892950,
        "digest": "b7caf78bc53474b6f32bc0b2815c692e61ff6d18ec1e5af43d76b13d7a3bec5e",
    },
    "paper40_maodv": {
        "events": 263750,
        "digest": "c3b60f0e28b08b399bd9d7906e1e73bf942e8b21df241df9aeb3e219052512af",
    },
    "mover100_fast": {
        "events": 1082576,
        "digest": "e948bf910e1529f4fbe2c3ef104b7cc5c8c53d32c1cb91785002c8a43af0a798",
    },
    "flood1k": {
        "events": 688959,
        "digest": "24996ffdd018204ec1f4257d367f466bca12daede4233ba56e0c170144d84efb",
    },
    "campaign_quick": {
        "events": 590335,
        "digest": "e7b2a20fc1c1ec05f767f237fc57c99c89477f676b35a4adad059ecf6ff7ed97",
    },
}

#: Toy-scale overrides for ``--smoke`` (wiring check only; nothing pinned).
SMOKE_SCENARIO = {
    "num_nodes": 12,
    "member_count": 4,
    "area_width_m": 120.0,
    "area_height_m": 120.0,
    "join_window_s": 1.0,
    "source_start_s": 3.0,
    "source_stop_s": 9.0,
    "packet_interval_s": 0.5,
    "duration_s": 11.0,
}
SMOKE_FLOOD_NODES = 60
SMOKE_CAMPAIGN_X = [40]

#: ``ISSUE 11`` layer names: the module paths under ``repro``.
LAYERS: List[str] = [
    "sim.engine", "sim.timers", "sim.shard", "mobility", "net.spatial",
    "net.medium", "net.phy", "net.mac", "net.node", "routing", "multicast",
    "core", "membership", "workload", "metrics", "obs", "trace", "campaign",
    "experiments", "host.other",
]

#: End-to-end metrics: name -> unit.  Direction and bound live in
#: BENCHMARK.json, which ``compare.py`` reads.  All times are *calibrated*:
#: host seconds times the machine's speed factor (:mod:`bench.reference`).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cal_events_per_s": "1/s",
    "cal_cpu_us_per_event": "us",
    "peak_rss_mb": "MB",
}

#: Exact counts (simulated; they repeat bit-for-bit) and the ratios derived
#: from them: name -> unit.
COUNTS: Dict[str, str] = {
    "sim.engine.events": "count",
    "host.us_per_event": "us",
    "net.medium.transmissions": "count",
    "net.medium.deliveries": "count",
    "net.medium.collisions": "count",
    "net.medium.deliveries_per_tx": "ratio",
    "net.mac.enqueued": "count",
    "net.mac.retransmissions": "count",
    "net.mac.unicast_failures": "count",
    "net.mac.queue_drops": "count",
    "net.mac.retry_ratio": "ratio",
    "routing.control_sent": "count",
    "routing.discovery_failures": "count",
    "routing.data_dropped_no_route": "count",
    "multicast.data_forwarded": "count",
    "multicast.data_duplicates": "count",
    "multicast.repairs_started": "count",
    "multicast.useful_ratio": "ratio",
    "core.rounds": "count",
    "core.requests_sent": "count",
    "core.recovered_messages": "count",
    "core.duplicate_messages": "count",
    "core.recovered_per_request": "ratio",
    "core.goodput_pct": "%",
    "metrics.delivery_ratio": "ratio",
    "metrics.packets_sent": "count",
    "campaign.trials": "count",
    "campaign.store_bytes": "count",
}

KERNELS: Dict[str, str] = {
    "sim.engine.kernel_events_per_s": "1/s",
    "sim.engine.kernel_cancel_events_per_s": "1/s",
    "net.spatial.kernel_queries_per_s": "1/s",
    "net.spatial.kernel_moves_per_s": "1/s",
    "campaign.store.kernel_records_per_s": "1/s",
}

#: Paired ratios: measured by the full panel only (they cost several extra
#: runs each), so they are in the trajectory file, not in BENCHMARK.json.
PAIRS: Dict[str, str] = {
    "obs.enabled_overhead_ratio": "ratio",
    "net.medium.span_vs_profile_ratio": "ratio",
    "sim.shard.seq4_cost_ratio": "ratio",
    "sim.shard.process2_speedup": "ratio",
    "sim.shard.process2_delivery_delta": "ratio",
    "campaign.jobs_nproc_speedup": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced invocation emits: name -> unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["host.speed_factor"] = "ratio"
    units["sim.digest_changed"] = "count"
    units.update(COUNTS)
    units.update(KERNELS)
    return units


def scenario_config(name: str, seed: int, smoke: bool = False, **overrides):
    """The :class:`ScenarioConfig` of scenario workload ``name`` at ``seed``."""
    from repro import ScenarioConfig

    entry = SCENARIOS[name]
    params = dict(entry["config"])
    if smoke:
        params.update(SMOKE_SCENARIO)
        if name == "flood1k":
            params.update(num_nodes=SMOKE_FLOOD_NODES, member_count=10,
                          area_width_m=250.0, area_height_m=250.0)
    params.update(overrides)
    return getattr(ScenarioConfig, entry["profile"])(seed=seed, **params)


def campaign_trials(seed: int, smoke: bool = False, **overrides):
    """``(spec, trials)`` of ``campaign_quick`` with trial seeds S, S+1."""
    from repro.campaign import trials_for_spec
    from repro.experiments.figures import figure7_nodes_constant_range

    entry = CAMPAIGN["campaign_quick"]
    spec = figure7_nodes_constant_range()
    trials = trials_for_spec(
        spec,
        scale=entry["scale"],
        seeds=1 if smoke else entry["seeds"],
        x_values=SMOKE_CAMPAIGN_X if smoke else None,
    )
    if smoke:
        overrides = {**SMOKE_SCENARIO, **overrides}
    moved = []
    for trial in trials:
        trial_seed = seed + trial.seed - 1
        config = replace(trial.config, seed=trial_seed, **overrides)
        moved.append(replace(trial, seed=trial_seed, config=config))
    return spec, moved
