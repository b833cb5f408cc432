"""The parallel shard mode: determinism, bit-identity and merge accounting.

The process mode (one OS process per shard) and the in-process lockstep
oracle (``tests/sim/reference_shard_driver.py``) run the same conservative
schedule over the same sorted mailboxes, so they must be *bit-identical to
each other* -- that identity is what lets CI prove the multi-process mode
correct without ever depending on OS scheduling.  Against the unsharded
engine the mode is a documented approximation (boundary frames arrive one
sync window late), so the suite asserts exact equality only between the
process driver and its oracle and sanity (deliveries flow, stats account
every event) against the reference.
"""

import multiprocessing
import os
import time

import pytest

import repro.sim.shard as shard_module
from repro.cli import build_parser
from repro.sim.engine import SimulationError
from repro.sim.shard import _ShardWorker, run_sharded
from repro.workload.failures import FailureEvent
from repro.workload.scenario import Scenario, ScenarioConfig, run_scenario
from tests.sim.reference_shard_driver import drive_lockstep, shard_driver


def _parallel_config(**overrides):
    """A small broadcast-dominant scenario that crosses shard boundaries.

    Flooding with gossip off keeps the traffic broadcast (cross-shard
    unicast ACKs cannot meet the MAC's 1.5 ms timeout across a sync
    window -- the documented parallel-mode caveat), and the 2 m/s fleet
    makes movers cross regions mid-run.
    """
    params = dict(
        num_nodes=24, member_count=8, area_width_m=220.0, area_height_m=220.0,
        transmission_range_m=60.0, protocol="flooding", gossip_enabled=False,
        max_speed_mps=2.0, max_pause_s=5.0, join_window_s=3.0,
        source_start_s=8.0, source_stop_s=20.0, packet_interval_s=0.5,
        duration_s=24.0, seed=31, shards=2, shard_mode="process",
    )
    params.update(overrides)
    return ScenarioConfig.quick(**params)


#: shard_stats keys that are wall-clock measurements (plus the mode tag):
#: everything else in shard_stats is simulation-deterministic and must agree
#: bit-exactly between the process driver and the oracle.
_WALL_CLOCK_STATS = ("mode", "setup_s_by_shard", "peak_rss_kb_by_shard")


def _comparable(result):
    return (
        result.events_processed,
        result.packets_sent,
        dict(result.member_counts),
        dict(result.protocol_stats),
        {
            k: v
            for k, v in result.shard_stats.items()
            if k not in _WALL_CLOCK_STATS
        },
    )


def _oracle(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the in-process lockstep driver."""
    with shard_driver(drive_lockstep):
        return run(*args, **kwargs)


@pytest.fixture(scope="module")
def process_result():
    return run_scenario(_parallel_config())


@pytest.fixture(scope="module")
def oracle_result():
    return _oracle(run_scenario, _parallel_config())


def test_process_mode_delivers(process_result):
    result = process_result
    assert result.packets_sent == 25
    assert result.delivery_ratio > 0.5
    stats = result.shard_stats
    assert stats["mode"] == "process"
    assert stats["shards"] == 2
    assert stats["records_exchanged"] > 0
    assert sum(stats["events_by_shard"].values()) == result.events_processed
    assert sum(stats["owned_by_shard"].values()) == 24
    # Every fleet member shows up in exactly one worker's census.
    assert sum(stats["final_census"].values()) == 24
    # Cross-shard traffic actually flowed through the mailbox paths.
    foreign = stats["foreign"]
    assert foreign["attached"] + foreign["late_deliveries"] > 0
    # Interest-filter accounting: copies shipped + suppressed add up to the
    # all-to-all volume (with 2 shards every record has one destination).
    assert stats["records_shipped"] + stats["records_filtered"] == (
        stats["records_exchanged"] * (stats["shards"] - 1)
    )
    assert stats["records_shipped"] > 0
    # Per-worker wall-clock diagnostics rode along for every shard.
    assert set(stats["setup_s_by_shard"]) == {0, 1}
    assert all(rss > 0 for rss in stats["peak_rss_kb_by_shard"].values())


def test_process_mode_is_deterministic(process_result):
    again = run_scenario(_parallel_config())
    assert _comparable(again) == _comparable(process_result)


def test_process_mode_is_bit_identical_to_the_oracle(process_result, oracle_result):
    assert _comparable(process_result) == _comparable(oracle_result)
    assert process_result.summary.member_counts == oracle_result.summary.member_counts


def test_process_merge_keeps_each_members_join(process_result):
    # Against the unsharded run the mode is an approximation in what was
    # received, but not in what was expected: the merged collectors hold
    # the same sends and the same join intervals, so the group summaries
    # agree on packets sent, members and the ratio's member count.
    unsharded = Scenario(_parallel_config(shards=1, shard_mode="sequential"))
    reference = unsharded.run().group_summaries[0]
    merged = process_result.group_summaries[0]
    assert merged.packets_sent == reference.packets_sent
    assert set(merged.member_counts) == set(reference.member_counts)
    assert merged.ratio_members == reference.ratio_members == 8
    payloads = []

    def capturing(*args):
        outcome = drive_lockstep(*args)
        payloads.extend(outcome[0])
        return outcome

    with shard_driver(capturing):
        run_scenario(_parallel_config())
    collector = shard_module._merge_collectors(_parallel_config(), payloads)[0]
    expected = unsharded.collectors[0]
    assert collector.members == expected.members
    for member in expected.members:
        assert collector.intervals_of(member) == expected.intervals_of(member)


def test_failure_injection_with_cross_shard_flights():
    """Killing nodes mid-run agrees between the process driver and the oracle.

    The outage windows overlap the source phase, so crashed nodes have
    frames in flight whose records cross shard boundaries -- exercising the
    truncation and foreign-sender-down paths under both drivers.
    """
    config = _parallel_config(seed=32)
    events = [
        FailureEvent(node_id=3, start_s=9.0, end_s=15.0),
        FailureEvent(node_id=11, start_s=10.0, end_s=18.0),
        FailureEvent(node_id=17, start_s=12.0, end_s=21.0),
    ]
    oracle = _oracle(run_sharded, config, failure_events=events)
    process = run_sharded(config, failure_events=events)
    assert _comparable(oracle) == _comparable(process)
    assert process.shard_stats["foreign"]["sender_downs"] > 0
    assert process.packets_sent == 25


def test_four_shards_still_agree():
    config = _parallel_config(shards=4, seed=33)
    oracle = _oracle(run_scenario, config)
    process = run_scenario(config)
    assert _comparable(oracle) == _comparable(process)
    assert len(process.shard_stats["events_by_shard"]) == 4
    # With 110 m regions and a 60 m carrier-sense range, senders deep inside
    # a region cannot reach the diagonal shards: the interest filter must
    # actually suppress copies here (and identically under both drivers).
    assert process.shard_stats["records_filtered"] > 0


def test_worker_elides_foreign_stacks_and_indexes_halo_only():
    """Tentpole accounting: a worker's state is region-sized.

    Protocol/gossip/application objects exist for owned nodes only; the
    spatial index holds the owned radios plus exactly the halo (foreign
    radios within carrier-sense range of the region at t=0) and nothing
    else.
    """
    config = _parallel_config()
    worker = _ShardWorker(config, role=0)
    scenario = worker.scenario
    owned = {node.node_id for node in scenario.nodes if node.phy.shard == 0}
    assert 0 < len(owned) < config.num_nodes
    assert set(scenario.aodv) == owned
    assert set(scenario.multicast) == owned
    assert set(scenario.sinks_by_group[0]) <= owned
    # Index = owned + halo, characterised exactly by region distance.
    plan = scenario.shard_plan
    range_m = worker.medium.config.transmission_range_m
    indexed = {
        phy.node_id for _, _, phy in worker.medium.spatial_index.members()
    }
    expected = {
        node.node_id
        for node in scenario.nodes
        if plan.region_distance(0, *node.phy.position(0.0)) <= range_m
    }
    assert owned <= indexed == expected
    assert worker.halo_size == len(indexed) - len(owned)


def test_parallel_modes_reject_unsupported_features():
    from repro.membership.config import ChurnConfig

    with pytest.raises(ValueError, match="churn"):
        run_scenario(_parallel_config(
            churn_config=ChurnConfig(model="poisson", events_per_minute=6.0)
        ))
    with pytest.raises(ValueError, match="shards"):
        run_sharded(_parallel_config(shards=1))


def test_window_override_changes_round_count():
    result = run_scenario(_parallel_config(shard_window_s=1.0))
    assert result.shard_stats["window_s"] == 1.0
    assert result.shard_stats["sync_rounds"] == 24


# ------------------------------------------------------ telemetry merging
def _obs_config(**overrides):
    from repro.obs import ObsConfig

    return _parallel_config(obs_config=ObsConfig(enabled=True), **overrides)


def _strip_wall_clock(telemetry):
    """Everything simulation-deterministic; wall-clock fields removed.

    Spans, the events/sec gauge (plus its per-shard copies), the sync stall
    gauge and the events_per_sec field of engine.sample records are the only
    telemetry derived from ``perf_counter``; the rest must agree bit-exactly
    between the process driver and the oracle.
    """
    import copy

    stripped = copy.deepcopy(telemetry)
    stripped.pop("spans", None)
    metrics = stripped.get("metrics", {})
    for name in list(metrics):
        base = name.split("{", 1)[0]
        if base in ("engine.calendar.events_per_sec", "shard.sync.stall_ms"):
            del metrics[name]
    for event in stripped.get("recorder_events", []):
        event.pop("events_per_sec", None)
    return stripped


@pytest.fixture(scope="module")
def process_obs_result():
    return run_scenario(_obs_config())


def test_process_obs_telemetry_is_merged(process_obs_result):
    telemetry = process_obs_result.telemetry
    assert telemetry["merged"] == {"shards": 2}
    metrics = telemetry["metrics"]
    # Deterministic sync accounting: every worker stepped every window.
    rounds = process_obs_result.shard_stats["sync_rounds"]
    assert metrics["shard.sync.windows"] == 2 * rounds
    # Mailbox volume matches the driver's own exchange accounting: every
    # drained record is counted once on export (with 2 shards, fan-out is 1),
    # while the final window's exports are routed but never applied.
    exchanged = process_obs_result.shard_stats["records_exchanged"]
    assert metrics["shard.sync.outbox_records"] == exchanged
    assert 0 < metrics["shard.sync.inbox_records"] <= exchanged
    # Interest-filter accounting: with 2 shards the all-to-all volume is one
    # copy per record, so shipped + filtered partitions it exactly.
    assert (
        metrics["shard.sync.records_shipped"]
        + metrics["shard.sync.records_filtered"]
        == exchanged
    )
    # Each worker published its halo size (deterministic per-shard gauge).
    assert "shard.halo.size{shard=0}" in metrics
    assert "shard.halo.size{shard=1}" in metrics
    # Per-shard gauge copies sit next to the merged gauge.
    assert "engine.calendar.heap_depth" in metrics
    assert "engine.calendar.heap_depth{shard=0}" in metrics
    assert "engine.calendar.heap_depth{shard=1}" in metrics
    # Spans aggregated across both workers.
    assert telemetry["spans"]["shard.window"]["count"] == 2 * rounds
    assert telemetry["spans"]["shard.setup"]["count"] == 2
    # Recorder events interleave in global time order.
    times = [event["t"] for event in telemetry["recorder_events"]]
    assert times == sorted(times)
    assert telemetry["recorder"]["capacity"] == 2 * 4096


def test_process_obs_telemetry_equals_the_oracle(process_obs_result):
    """Pipes and pickling change no telemetry, end to end.

    The oracle folds the same per-worker snapshots in one process; equal
    output (wall-clock fields aside) proves the transport loses nothing.
    """
    oracle = _oracle(run_scenario, _obs_config())
    assert _strip_wall_clock(process_obs_result.telemetry) == _strip_wall_clock(
        oracle.telemetry
    )


def test_obs_telemetry_merges_under_failure_injection():
    config = _obs_config(seed=32)
    events = [
        FailureEvent(node_id=3, start_s=9.0, end_s=15.0),
        FailureEvent(node_id=11, start_s=10.0, end_s=18.0),
    ]
    oracle = _oracle(run_sharded, config, failure_events=events)
    process = run_sharded(config, failure_events=events)
    assert _comparable(oracle) == _comparable(process)
    assert _strip_wall_clock(oracle.telemetry) == _strip_wall_clock(
        process.telemetry
    )
    assert process.shard_stats["foreign"]["sender_downs"] > 0


def test_obs_enabled_does_not_change_parallel_results(
    process_result, process_obs_result
):
    """Instrumentation must not perturb the simulation itself.

    The sampler adds its own calendar events, so events_processed differs;
    everything the paper reads off the run (deliveries, protocol stats,
    mailbox traffic) must be identical to the uninstrumented run.
    """
    instrumented = process_obs_result
    assert instrumented.packets_sent == process_result.packets_sent
    assert dict(instrumented.member_counts) == dict(process_result.member_counts)
    assert dict(instrumented.protocol_stats) == dict(process_result.protocol_stats)
    assert (
        instrumented.shard_stats["records_exchanged"]
        == process_result.shard_stats["records_exchanged"]
    )


def test_worker_error_dump_gets_shard_suffix(tmp_path):
    """Satellite: per-worker crash dumps carry a ``.shard<k>`` suffix."""
    from repro.obs import ObsConfig

    dump = tmp_path / "crash.jsonl"
    config = _parallel_config(
        obs_config=ObsConfig(enabled=True, dump_on_error_path=str(dump))
    )
    worker = _ShardWorker(config, role=1)
    assert worker.scenario.config.obs_config.dump_on_error_path == (
        f"{dump}.shard1"
    )

    def boom():
        raise RuntimeError("injected")

    worker.sim.call_in(0.5, boom)
    with pytest.raises(RuntimeError, match="injected"):
        worker.step([], until=1.0)
    assert (tmp_path / "crash.jsonl.shard1").exists()


def test_sequential_shard_obs_telemetry_matches_unsharded():
    """Instrumented sequential sharding = the unsharded telemetry + extras.

    The sequential mode is the exact engine (same events, same order), so
    every workload-level metric, histogram and fan-out total must be
    byte-identical to the unsharded instrumented run; the only additions
    are the sampler's ``engine.shard.*`` partition-balance gauges.  Engine
    calendar-health gauges (heap depth, tombstones, compactions) describe
    the *engine's internals*, which legitimately differ between one heap
    and N region heaps, so they are excluded alongside wall-clock fields.
    """
    def _workload_view(telemetry):
        metrics = {
            name: value
            for name, value in telemetry["metrics"].items()
            if not name.split("{", 1)[0].startswith("engine.")
        }
        return metrics, telemetry["histograms"], telemetry["top_fanout"]

    unsharded = run_scenario(_obs_config(shards=1))
    sequential = run_scenario(_obs_config(shard_mode="sequential"))
    assert sequential.events_processed == unsharded.events_processed
    assert _workload_view(sequential.telemetry) == _workload_view(
        unsharded.telemetry
    )
    # The per-shard partition-balance extras actually arrived.
    metrics = sequential.telemetry["metrics"]
    assert "engine.shard.head_scan_comparisons" in metrics
    assert "engine.shard.heap_depth{shard=0}" in metrics
    assert "engine.shard.events{shard=1}" in metrics


# ------------------------------------------------------- one parallel mode
def test_windowed_mode_is_gone():
    with pytest.raises(ValueError, match="shard_mode"):
        ScenarioConfig.quick(shards=2, shard_mode="windowed")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--shard-mode", "windowed"])
    with pytest.raises(ValueError, match="parallel shard mode"):
        run_sharded(_parallel_config(shard_mode="sequential"))


def test_shard_driver_swaps_one_name_and_restores_it():
    production = shard_module._drive_process

    def broken(*args):
        raise RuntimeError("no driver")

    with pytest.raises(RuntimeError, match="no driver"):
        with shard_driver(broken):
            run_sharded(_parallel_config())
    assert shard_module._drive_process is production


_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker reaches the children only through fork",
)


def _fails_fast(role, message):
    """``run_sharded`` raises naming ``role`` and ``message``, well inside
    the 30 s join timeout a blocked survivor would otherwise cost."""
    started = time.perf_counter()
    with pytest.raises(SimulationError, match=f"shard {role}") as failure:
        run_sharded(_parallel_config())
    assert time.perf_counter() - started < 10.0
    assert message in str(failure.value)


@_fork_only
def test_failing_worker_fails_the_run_fast(monkeypatch):
    """A worker that raises mid-run ends the run at once, with its message.

    The surviving worker is blocked on its pipe; the driver must stop it
    rather than wait out the join timeout.
    """
    step = _ShardWorker.step

    def failing_step(self, inbox, until):
        if self.role == 1 and until > 5.0:
            raise RuntimeError("injected worker failure")
        return step(self, inbox, until)

    monkeypatch.setattr(_ShardWorker, "step", failing_step)
    _fails_fast(1, "RuntimeError: injected worker failure")


@_fork_only
def test_worker_failing_to_build_fails_the_run_fast(monkeypatch):
    """A worker may die before the driver's first message reaches it."""
    build = _ShardWorker.__init__

    def failing_build(self, config, role, failure_events=None):
        if role == 0:
            raise RuntimeError("injected build failure")
        build(self, config, role, failure_events)

    monkeypatch.setattr(_ShardWorker, "__init__", failing_build)
    _fails_fast(0, "RuntimeError: injected build failure")


@_fork_only
def test_worker_killed_without_a_reply_fails_the_run_fast(monkeypatch):
    step = _ShardWorker.step

    def dying_step(self, inbox, until):
        if self.role == 1 and until > 5.0:
            os._exit(1)
        return step(self, inbox, until)

    monkeypatch.setattr(_ShardWorker, "step", dying_step)
    _fails_fast(1, "exited without replying")
