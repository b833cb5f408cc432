"""The sequential sharded engine is shard-count invariant, bit for bit.

The :class:`~repro.sim.shard.ShardedSimulator` claims that sharding changes
*where* an event waits, never *when* it fires: for any shard count the
global ``(time, seq)`` execution order -- and therefore every protocol
counter, delivery and digest -- equals the single-heap engine's.  This
suite proves it the same way the medium is proven against its oracles:
every hot-path golden scenario (figures 2-8 geometries, all three protocol
stacks, the naive medium) and every failure-injection overlay reruns with
2 and 4 shards against the *recorded* digests.

Edge cases the partition must not disturb are pinned directly: a
transmitter parked exactly on a region boundary, movers fast enough to
cross regions mid-run, and failures killing nodes with in-flight frames
heading across a boundary (the golden failure overlays under shards
already cover that last one; the dedicated test makes the crossing
explicit).
"""

from dataclasses import replace

import pytest

from tests.properties.hotpath_golden import (
    GOLDEN_FAILURES,
    GOLDEN_MEDIA,
    GOLDEN_SCENARIOS,
    load_golden,
    run_digest,
)

SHARD_COUNTS = (2, 4)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_sharded_engine_matches_golden(name, shards, golden):
    config = replace(GOLDEN_SCENARIOS[name], shards=shards)
    observed = run_digest(config, medium=GOLDEN_MEDIA.get(name))
    expected = golden.get(name)
    assert expected is not None
    for key in ("protocol_stats", "member_counts", "goodput_by_member",
                "packets_sent", "events_processed", "deliveries_logged",
                "delivery_log_sha256"):
        assert observed[key] == expected[key], (
            f"{name} with {shards} shards: {key} diverged from golden"
        )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", sorted(GOLDEN_FAILURES))
def test_sharded_failure_injection_matches_golden(name, shards, golden):
    base, events = GOLDEN_FAILURES[name]
    config = replace(GOLDEN_SCENARIOS[base], shards=shards)
    observed = run_digest(config, failure_events=events)
    expected = golden.get(name)
    assert expected is not None
    for key in ("protocol_stats", "events_processed", "delivery_log_sha256"):
        assert observed[key] == expected[key], (
            f"{name} with {shards} shards: {key} diverged from golden"
        )


def _small_config(**overrides):
    params = dict(
        num_nodes=18, member_count=6, area_width_m=200.0, area_height_m=200.0,
        transmission_range_m=55.0, max_speed_mps=1.0, max_pause_s=10.0,
        join_window_s=3.0, source_start_s=8.0,
        source_stop_s=22.0, packet_interval_s=0.5, duration_s=26.0, seed=21,
    )
    params.update(overrides)
    from repro.workload.scenario import ScenarioConfig

    return ScenarioConfig.quick(**params)


def test_static_fleet_invariance():
    """A completely static fleet is shard-invariant (no motion edge cases)."""
    config = _small_config(max_speed_mps=0.0, min_speed_mps=0.0, seed=22)
    reference = run_digest(config)
    for shards in (2, 4):
        observed = run_digest(replace(config, shards=shards))
        assert observed == reference


@pytest.mark.parametrize("shards", [3, 6])
def test_non_square_partition_invariance(shards):
    """1 x 3 and 2 x 3 plans agree with the single heap on a moving fleet.

    The goldens run 1 x 2 and 2 x 2 plans only; a column count of three
    puts region edges at thirds of the area, which no float division
    lands on exactly.
    """
    config = _small_config()
    reference = run_digest(config)
    assert reference["deliveries_logged"] > 0
    assert run_digest(replace(config, shards=shards)) == reference


def test_boundary_transmitter_invariance():
    """Transmitters parked *exactly* on region boundaries deliver identically.

    A direct medium-level pin: radios on the 2x2 partition's centre lines
    (the half-open region boundary, where ``shard_of`` must pick one side
    deterministically) broadcast through a sharded and an unsharded engine;
    deliveries, stats and event counts must agree.
    """
    from repro.net.config import RadioConfig
    from repro.net.medium import Medium
    from repro.net.packet import Frame, Packet
    from repro.net.phy import Phy
    from repro.sim.engine import Simulator
    from repro.sim.shard import ShardedSimulator, ShardPlan

    # Node 2 sits exactly on the vertical boundary, node 3 exactly on the
    # partition's centre point.
    positions = [(40.0, 100.0), (160.0, 100.0), (100.0, 60.0), (100.0, 100.0)]

    class _StaticNode:
        def __init__(self, node_id, x, y):
            self.node_id = node_id
            self._position = (x, y)

        def position(self, at_time):
            return self._position

    def run_network(sharded):
        shards = 4 if sharded else 1
        sim = ShardedSimulator(4) if sharded else Simulator()
        medium = Medium(
            sim, RadioConfig(transmission_range_m=80.0, shards=shards)
        )
        plan = ShardPlan.build(4, 200.0, 200.0)
        received = []
        phys = []
        for node_id, (x, y) in enumerate(positions):
            phy = Phy(_StaticNode(node_id, x, y), medium)
            phy.shard = plan.shard_of(x, y)
            phy.set_receive_callback(
                lambda frame, sender, nid=node_id: received.append(
                    (sim.now, nid, sender, frame.packet.origin)
                )
            )
            phys.append(phy)
        for node_id, phy in enumerate(phys):
            sim.call_at(
                0.01 * (node_id + 1),
                lambda p=phy, n=node_id: p.transmit(
                    Frame(src=n, dst=-1, packet=Packet(origin=n, destination=-1,
                                                       size_bytes=100))
                ),
            )
        sim.run()
        return received, medium.stats.deliveries, sim.events_processed

    plain = run_network(sharded=False)
    sharded = run_network(sharded=True)
    assert sharded == plain
    assert plain[1] > 0  # the boundary radios really did deliver


def test_fast_movers_crossing_regions_invariance():
    """Movers sprinting across regions mid-run stay bit-identical.

    Home shards are assigned from initial positions only; nodes roaming
    into other regions exercise the claim that the shard is a routing hint,
    never a correctness input.
    """
    config = _small_config(max_speed_mps=12.0, max_pause_s=0.5, seed=23)
    reference = run_digest(config)
    for shards in (2, 4):
        observed = run_digest(replace(config, shards=shards))
        assert observed == reference


def test_sequential_shard_stats_account_every_event():
    """Per-shard event counters sum to the engine's total."""
    from repro.workload.scenario import run_scenario

    result = run_scenario(_small_config(shards=4))
    stats = result.shard_stats
    assert stats["mode"] == "sequential"
    assert stats["shards"] == 4
    assert sum(stats["events_by_shard"].values()) == result.events_processed
    # The partition actually spreads load: more than one shard fires events.
    assert sum(1 for count in stats["events_by_shard"].values() if count) > 1
