"""Grid and naive medium implementations are bit-identical.

The spatial-index medium (`repro.net.medium.Medium`, "grid" below) must be
indistinguishable from the O(N) linear-scan oracle (`LinearScanMedium` in
`tests/net/reference_medium.py`, "naive" below): same `MediumStats`, same
delivered-frame sequence, same aggregated experiment metrics, on full
scenarios with random-waypoint mobility and real protocol stacks.  Any
divergence -- however small -- means the index returned a wrong candidate
set or classified a distance differently, so everything is compared for
exact equality, not approximate.
"""

import random
from dataclasses import replace

import pytest

from repro.campaign.executor import execute_trial
from repro.mobility.static import StaticMobility
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator
from repro.campaign.trials import TrialSpec
from repro.workload.scenario import Scenario, ScenarioConfig
from tests.net.reference_medium import MEDIA, PerCopyMedium, scenario_medium
from tests.properties.hotpath_golden import run_with_delivery_log


def _small_config(seed, **overrides):
    defaults = dict(
        num_nodes=14,
        member_count=5,
        area_width_m=150.0,
        area_height_m=150.0,
        transmission_range_m=60.0,
        max_speed_mps=2.0,
        max_pause_s=10.0,
        join_window_s=3.0,
        source_start_s=8.0,
        source_stop_s=24.0,
        packet_interval_s=0.5,
        duration_s=28.0,
        protocol="flooding",
        gossip_enabled=True,
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig.quick(**defaults)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_and_naive_media_are_bit_identical(seed):
    results = {}
    for index in ("naive", "grid"):
        results[index] = run_with_delivery_log(
            _small_config(seed), medium=MEDIA[index]
        )
    naive_result, naive_log = results["naive"]
    grid_result, grid_log = results["grid"]

    # MediumStats (and every other protocol counter) must match exactly.
    assert naive_result.protocol_stats == grid_result.protocol_stats
    # Delivered-frame sequence: same packets, same receivers, same instants,
    # same order.
    assert naive_log == grid_log
    # Aggregate outcomes.
    assert naive_result.member_counts == grid_result.member_counts
    assert naive_result.goodput_by_member == grid_result.goodput_by_member
    assert naive_result.packets_sent == grid_result.packets_sent
    assert naive_result.events_processed == grid_result.events_processed


@pytest.mark.parametrize("model", ["gauss_markov", "rpgm", "manhattan"])
def test_grid_and_naive_media_identical_for_every_mobility_model(model):
    """The displacement-epoch windows stay exact under every motion family."""
    from repro.mobility.config import MobilityConfig

    results = {}
    for index in ("naive", "grid"):
        results[index] = run_with_delivery_log(
            _small_config(4, mobility_config=MobilityConfig(model=model)),
            medium=MEDIA[index],
        )
    naive_result, naive_log = results["naive"]
    grid_result, grid_log = results["grid"]
    assert naive_result.protocol_stats == grid_result.protocol_stats
    assert naive_log == grid_log
    assert naive_result.member_counts == grid_result.member_counts
    assert naive_result.goodput_by_member == grid_result.goodput_by_member
    assert naive_result.events_processed == grid_result.events_processed


def test_grid_and_naive_media_identical_on_a_sparse_area():
    """Twelve short-range radios on the paper's 200 m square: most sit near
    an edge with few neighbours, and every grid cell query clips there."""
    results = {}
    for index in ("naive", "grid"):
        config = _small_config(
            9, num_nodes=12, member_count=4, area_width_m=200.0,
            area_height_m=200.0, transmission_range_m=45.0,
            source_stop_s=20.0, duration_s=24.0, protocol="maodv",
        )
        results[index] = run_with_delivery_log(config, medium=MEDIA[index])
    naive_result, naive_log = results["naive"]
    grid_result, grid_log = results["grid"]
    assert naive_result.protocol_stats["medium.deliveries"] > 0
    assert naive_result.protocol_stats == grid_result.protocol_stats
    assert naive_log == grid_log
    assert naive_result.events_processed == grid_result.events_processed


@pytest.mark.parametrize("protocol", ["maodv", "flooding"])
def test_experiment_metrics_identical_across_media(protocol):
    """The numbers that feed ExperimentPoint aggregation match exactly."""
    records = {}
    for index in ("naive", "grid"):
        config = _small_config(5, protocol=protocol)
        trial = TrialSpec(
            campaign="equivalence",
            x=0.0,
            variant="gossip",
            seed=config.seed,
            scale="quick",
            config=config,
        )
        with scenario_medium(MEDIA[index]):
            records[index] = execute_trial(trial)
    naive, grid = records["naive"], records["grid"]
    assert naive.metrics == grid.metrics
    assert naive.goodput_by_member == grid.goodput_by_member
    assert naive.member_counts == grid.member_counts
    # protocol_stats embeds every MediumStats counter (medium.* keys).
    assert naive.protocol_stats == grid.protocol_stats
    assert any(key.startswith("medium.") for key in naive.protocol_stats)


def test_equivalence_survives_failure_injection():
    """Crashing and recovering nodes mid-run keeps both media in lockstep."""
    from repro.workload.failures import FailureEvent, FailureSchedule

    results = {}
    for index in ("naive", "grid"):
        config = _small_config(7)
        with scenario_medium(MEDIA[index]):
            scenario = Scenario(config).build()
        events = [
            FailureEvent(node_id=2, start_s=10.0, end_s=16.0),
            FailureEvent(node_id=5, start_s=12.0, end_s=20.0),
            FailureEvent(node_id=9, start_s=9.0, end_s=26.0),
        ]
        schedule = FailureSchedule(scenario.sim, scenario.nodes, events)
        schedule.start()
        results[index] = scenario.run()
    assert results["naive"].protocol_stats == results["grid"].protocol_stats
    assert results["naive"].member_counts == results["grid"].member_counts


@pytest.mark.parametrize("protocol", ["maodv", "flooding"])
def test_object_kernel_never_holds_two_decodable_copies(protocol):
    """At most one copy a radio holds is decodable, ever.

    The medium keeps one reception record per radio instead of one per
    copy because of this; here it is checked on the per-copy oracle, which
    does keep one record per copy, after every transmission start (the only
    place a decodable copy is created) of a run with collisions, unicast
    traffic and failure injection.
    """
    from repro.workload.failures import FailureEvent, FailureSchedule

    with scenario_medium(PerCopyMedium):
        scenario = Scenario(_small_config(7, protocol=protocol)).build()
    medium = scenario.medium
    transmit = medium.transmit
    decodable_seen = set()

    def checked_transmit(sender, frame):
        duration = transmit(sender, frame)
        for copies in medium._active_receptions.values():
            decodable_seen.add(sum(not copy.corrupted for copy in copies))
        return duration

    medium.transmit = checked_transmit
    events = [FailureEvent(node_id=2, start_s=10.0, end_s=16.0),
              FailureEvent(node_id=5, start_s=12.0, end_s=20.0)]
    FailureSchedule(scenario.sim, scenario.nodes, events).start()
    result = scenario.run()
    assert result.protocol_stats["medium.collisions"] > 0
    assert decodable_seen == {0, 1}


# --------------------------------------------------------------------------
# Exact ties: a launch at the very instant a flight ends
# --------------------------------------------------------------------------

#: 1/16 s per 64 bytes and no preamble: every airtime and every grid time
#: below is a small dyadic fraction, so a flight's computed end lands
#: *exactly* on the grid and launches there tie with it.
_TIE_RADIO = RadioConfig(bitrate_bps=8 * 1024.0, preamble_s=0.0, transmission_range_m=100.0)
_TIE_STEP = 1.0 / 16.0
_TIE_SIZES = (64 - 34, 128 - 34, 256 - 34)  # payload bytes; the header is 34


class _Still:
    def __init__(self, node_id, x, y):
        self.node_id = node_id
        self.mobility = StaticMobility(x, y)
        self.position = self.mobility.position


def _run_tie_script(kind, seed, range_m):
    """Launches, power cycles and unicasts on a 1/16 s grid.  Events
    scheduled up front run *before* the teardowns at their instant (lower
    sequence numbers); the ones a helper schedules 1/32 s ahead run
    *after* them.  Returns the statistics and every delivery, in order."""
    rng = random.Random(seed)
    sim = Simulator()
    radio = replace(_TIE_RADIO, transmission_range_m=range_m)
    medium = MEDIA[kind](sim, radio)
    positions = [(0, 0), (40, 0), (80, 0), (40, 40), (120, 40), (160, 0)]
    log = []
    phys = []
    for node_id, (x, y) in enumerate(positions):
        phy = Phy(_Still(node_id, x, y), medium)
        phy.set_receive_callback(
            lambda frame, sender, nid=node_id: log.append(
                (sim.now, nid, sender, frame.packet.ttl)
            )
        )
        phy.unicast_filter = True  # as every MAC sets it
        phys.append(phy)

    def launch(sender, dst, size, label):
        phy = phys[sender]
        if phy.enabled and not phy.transmitting:
            packet = Packet(origin=sender, destination=dst, size_bytes=size, ttl=label)
            phy.transmit(Frame(src=sender, dst=dst, packet=packet))

    def toggle(node_id):
        phy = phys[node_id]
        phy.power_up() if not phy.enabled else phy.power_down()

    for label in range(60):
        at = rng.randrange(1, 48) * _TIE_STEP
        if rng.random() < 0.08:
            call, args = toggle, (rng.randrange(len(phys)),)
        else:
            sender = rng.randrange(len(phys))
            dst = rng.choice([-1, rng.randrange(len(phys))])
            call, args = launch, (sender, dst, rng.choice(_TIE_SIZES), label)
        if rng.random() < 0.5:
            sim.call_at(at, call, args)  # before the teardowns at ``at``
        else:  # after them
            sim.call_at(at - _TIE_STEP / 2, sim.call_at, (at, call, args))
    sim.run()
    return vars(medium.stats), log


@pytest.mark.parametrize("range_m", [100.0, 130.0])
@pytest.mark.parametrize("seed", range(6))
def test_launches_at_flight_end_instants_match_the_per_copy_oracle(seed, range_m):
    ties = []
    holds = Medium._holds_ending_flight

    def counted(self, phy, now):
        held = holds(self, phy, now)
        ties.append(held)
        return held

    Medium._holds_ending_flight = counted
    try:
        batch = _run_tie_script("batch", seed, range_m)
    finally:
        Medium._holds_ending_flight = holds
    assert batch == _run_tie_script("object", seed, range_m)
    assert batch[0]["collisions"] > 0 and batch[0]["deliveries"] > 0
    # Both sides of the tie were taken: launches before a teardown at the
    # same instant see its energy, launches after it do not.
    assert True in ties and False in ties
