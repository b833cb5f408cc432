"""Telemetry snapshots ride campaign trial records through the JSONL store."""

import dataclasses

from repro.campaign import ResultStore, TrialRecord, run_campaign
from repro.campaign.trials import TrialSpec, config_from_dict
from repro.obs import ObsConfig
from repro.workload.scenario import ScenarioConfig


def _instrumented_trial() -> TrialSpec:
    config = ScenarioConfig.quick(
        num_nodes=10,
        member_count=4,
        join_window_s=2.0,
        source_start_s=5.0,
        source_stop_s=14.0,
        packet_interval_s=0.5,
        duration_s=16.0,
        seed=21,
        obs_config=ObsConfig(enabled=True),
    )
    return TrialSpec(
        campaign="obs-test", x=55.0, variant="gossip", seed=21, scale="quick",
        config=config,
    )


class TestTelemetryRoundTrip:
    def test_trial_record_round_trips_through_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "obs.jsonl")
        records = run_campaign([_instrumented_trial()], jobs=1, store=store)
        assert len(records) == 1
        assert records[0].telemetry, "instrumented trial must carry telemetry"

        reloaded = store.records()
        assert len(reloaded) == 1
        assert reloaded[0].telemetry == records[0].telemetry
        metrics = reloaded[0].telemetry["metrics"]
        assert metrics["medium.channel.transmissions"] > 0
        assert "medium.channel.fanout" in reloaded[0].telemetry["histograms"]

    def test_uninstrumented_record_stays_lean(self):
        trial = _instrumented_trial()
        trial = dataclasses.replace(
            trial, config=dataclasses.replace(trial.config, obs_config=ObsConfig())
        )
        records = run_campaign([trial], jobs=1)
        assert records[0].telemetry == {}
        assert '"telemetry"' not in records[0].to_json()

    def test_obs_config_survives_config_round_trip(self):
        from repro.campaign.trials import config_to_dict

        config = ScenarioConfig.quick(
            obs_config=ObsConfig(enabled=True, dump_on_error_path="crash.jsonl")
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.obs_config == config.obs_config
        assert rebuilt == config

    def test_legacy_record_without_telemetry_parses(self):
        line = (
            '{"version":1,"key":"k","campaign":"c","x":1.0,"variant":"v",'
            '"seed":1,"scale":"quick","metrics":{"mean":1.0}}'
        )
        parsed = TrialRecord.from_json(line)
        assert parsed.telemetry == {}


class TestCampaignAggregator:
    def test_executor_folds_fresh_records(self, tmp_path):
        from repro.campaign import TelemetryAggregator

        aggregator = TelemetryAggregator()
        records = run_campaign(
            [_instrumented_trial()], jobs=1, telemetry=aggregator
        )
        assert aggregator.trials == 1
        merged = aggregator.snapshot()
        assert merged["merged"] == {"trials": 1}
        # One trial merged == that trial's own telemetry (minus the event
        # list, which the aggregator deliberately drops to stay streaming).
        trial_metrics = records[0].telemetry["metrics"]
        assert merged["metrics"] == trial_metrics
        assert "recorder_events" not in merged

    def test_resume_folds_stored_records_once(self, tmp_path):
        from repro.campaign import TelemetryAggregator

        store = ResultStore(tmp_path / "resume.jsonl")
        run_campaign([_instrumented_trial()], jobs=1, store=store)

        aggregator = TelemetryAggregator()
        records = run_campaign(
            [_instrumented_trial()], jobs=1, store=store,
            telemetry=aggregator,
        )
        assert len(records) == 1
        # The trial was resumed from the store, not re-run -- and its
        # stored telemetry was folded exactly once.
        assert aggregator.trials == 1
        merged = aggregator.snapshot()
        assert merged["metrics"] == records[0].telemetry["metrics"]

    def test_merged_store_telemetry_last_wins(self, tmp_path):
        from repro.campaign import merged_store_telemetry

        store = ResultStore(tmp_path / "dupes.jsonl")
        records = run_campaign([_instrumented_trial()], jobs=1, store=store)
        # Rewrite the same key with doctored telemetry: the later line must
        # shadow the earlier one (append-only store, last line wins).
        doctored = dataclasses.replace(
            records[0],
            telemetry={**records[0].telemetry,
                       "metrics": {"medium.channel.transmissions": 1}},
        )
        store.append(doctored)
        merged = merged_store_telemetry(store)
        assert merged["merged"]["trials"] == 1
        assert merged["metrics"]["medium.channel.transmissions"] == 1
