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

import pytest

from repro.campaign.executor import execute_trial
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
