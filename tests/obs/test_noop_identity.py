"""The zero-overhead contract, enforced.

With observability disabled a run must be *bit-identical* to an
uninstrumented build: same protocol counters, same delivery log, same event
count.  With observability enabled the sampler rides the calendar (so the
event count grows) but the simulation itself -- every protocol counter and
the exact delivered-frame sequence -- must not shift by one bit either: the
probes only read.
"""

import dataclasses

import pytest

from repro.membership.config import ChurnConfig
from repro.obs import NULL_OBS, ObsConfig
from repro.workload.scenario import Scenario, ScenarioConfig

from tests.properties.hotpath_golden import (
    GOLDEN_FAILURES,
    GOLDEN_SCENARIOS,
    run_digest,
    run_with_delivery_log,
)

_SCENARIO = "fig4_speed_low"


def _with_obs(config: ScenarioConfig, **obs_overrides) -> ScenarioConfig:
    return dataclasses.replace(config, obs_config=ObsConfig(**obs_overrides))


def _run_disabled(config: ScenarioConfig) -> None:
    assert Scenario(config).run().telemetry is None


def _run_fig7_outages() -> None:
    scenario_name, outages = GOLDEN_FAILURES["fig7_with_outages"]
    run_with_delivery_log(GOLDEN_SCENARIOS[scenario_name], outages)


_BASE = GOLDEN_SCENARIOS[_SCENARIO]

# One cheap disabled run per stack and overlay: MAODV + gossip, ODMRP,
# flooding, sequential shards, multi-group churn and a failure overlay.
_DISABLED_RUNS = {
    "maodv_gossip": lambda: _run_disabled(_BASE),
    "odmrp": lambda: _run_disabled(GOLDEN_SCENARIOS["odmrp_stack"]),
    "flooding": lambda: _run_disabled(GOLDEN_SCENARIOS["flooding_stack"]),
    "shards2": lambda: _run_disabled(dataclasses.replace(_BASE, shards=2)),
    "multigroup_churn": lambda: _run_disabled(
        dataclasses.replace(
            _BASE,
            group_count=2,
            churn_config=ChurnConfig(model="poisson", events_per_minute=30.0),
        )
    ),
    "fig7_outages": _run_fig7_outages,
}


class TestDisabledIdentity:
    def test_explicit_disabled_config_matches_default_digest(self):
        config = GOLDEN_SCENARIOS[_SCENARIO]
        baseline = run_digest(config)
        disabled = run_digest(_with_obs(config, enabled=False))
        assert disabled == baseline

    def test_disabled_run_has_no_telemetry(self):
        result = Scenario(GOLDEN_SCENARIOS[_SCENARIO]).run()
        assert result.telemetry is None


class TestDisabledRunsNeverWrite:
    """Every probe site is gated on its cached ``obs.enabled``.

    A disabled run binds its metrics from the one shared, switched-off
    :data:`NULL_OBS`, so an ungated probe would write into it.  After each
    disabled run -- every stack, a failure overlay, sequential shards and
    multi-group churn -- every value it holds must still be zero.  (Its set of *names* grows as runs bind, so the check reads
    values, not a before/after diff.)
    """

    @pytest.mark.parametrize("run", list(_DISABLED_RUNS))
    def test_shared_facade_stays_zero(self, run):
        _DISABLED_RUNS[run]()

        snapshot = NULL_OBS.snapshot()
        assert snapshot["metrics"], "disabled runs bind their metrics here"
        for name, value in snapshot["metrics"].items():
            if isinstance(value, dict):
                assert value["updates"] == 0, name
            else:
                assert value == 0, name
        for name, histogram in snapshot["histograms"].items():
            assert histogram["count"] == 0, name
        assert snapshot["spans"] == {}
        assert snapshot["recorder"]["recorded"] == 0


class TestEnabledNonPerturbation:
    def test_probes_only_read_the_simulation(self):
        config = GOLDEN_SCENARIOS[_SCENARIO]
        baseline = run_digest(config)
        instrumented = run_digest(_with_obs(config, enabled=True))
        # The sampler's own ticks are the only difference.
        assert instrumented["events_processed"] > baseline["events_processed"]
        for key in (
            "protocol_stats",
            "member_counts",
            "goodput_by_member",
            "packets_sent",
            "deliveries_logged",
            "delivery_log_sha256",
        ):
            assert instrumented[key] == baseline[key], key

    def test_telemetry_snapshot_contents(self):
        config = _with_obs(GOLDEN_SCENARIOS[_SCENARIO], enabled=True)
        result = Scenario(config).run()
        telemetry = result.telemetry
        assert telemetry is not None
        metrics = telemetry["metrics"]
        # Promoted stats appear under canonical names and agree with the
        # legacy flat aggregation.
        assert (
            metrics["medium.channel.transmissions"]
            == result.protocol_stats["medium.transmissions"]
        )
        assert metrics["mac.csma.enqueued"] == result.protocol_stats["mac.enqueued"]
        # The kinetic-window counters are first-class stats: every
        # transmission either hit its sender's window or resolved pairs.
        assert 0 < metrics["spatial.index.window_hits"] < metrics["medium.channel.transmissions"]
        assert metrics["spatial.index.window_builds"] > 0
        assert metrics["spatial.index.window_resolves"] > 0
        assert metrics["spatial.index.grid_rebuilds"] > 0
        assert "spatial.index.window_patch_hits" not in metrics
        # Engine sampler gauges and fan-out histogram populated.
        assert metrics["engine.calendar.heap_depth"]["updates"] > 0
        fanout = telemetry["histograms"]["medium.channel.fanout"]
        assert fanout["count"] == metrics["medium.channel.transmissions"]
        assert telemetry["spans"]["medium.fanout"]["count"] > 0
        assert telemetry["top_fanout"]
        assert telemetry["recorder"]["recorded"] > 0

    def test_enabled_snapshots_are_deterministic(self):
        config = _with_obs(GOLDEN_SCENARIOS[_SCENARIO], enabled=True)
        first = Scenario(config).run().telemetry
        second = Scenario(config).run().telemetry
        # Wall-clock readings (events/sec gauges, span timings) differ run to
        # run; everything simulation-derived must not.
        for key in ("engine.calendar.events_per_sec",):
            first["metrics"].pop(key)
            second["metrics"].pop(key)
        assert first["histograms"] == second["histograms"]
        assert first["top_fanout"] == second["top_fanout"]
        assert first["recorder"] == second["recorder"]
        counters_first = {
            name: value
            for name, value in first["metrics"].items()
            if isinstance(value, (int, float))
        }
        counters_second = {
            name: value
            for name, value in second["metrics"].items()
            if isinstance(value, (int, float))
        }
        assert counters_first == counters_second


class TestPerGroupRoundRng:
    def test_default_keeps_independent_streams(self):
        config = ScenarioConfig.quick(
            group_count=2,
            num_nodes=8,
            member_count=3,
            join_window_s=1.0,
            source_start_s=2.0,
            source_stop_s=4.0,
            duration_s=5.0,
        )
        scenario = Scenario(config).build()
        for node_id, agent in scenario.gossip_by_group[0].items():
            assert scenario.gossip_by_group[1][node_id].rng is not agent.rng
