"""Campaign executor tests: parallel determinism, resume semantics, memory.

``jobs=2`` produces aggregates identical to the serial path, a
killed-then-resumed campaign completes using only the trials missing from
the store (verified by asserting stored trials are never re-executed), no
finished trial's scenario stays resident after its record is returned (nor
is what was alive before it walked by its collections), and a raising
trial in the pool starts no queued trial but stores every one that
finished.
"""

import gc
import multiprocessing
import time
from dataclasses import replace

import pytest

import repro.campaign.executor as executor_module
from repro.campaign import (
    ResultStore,
    aggregate_experiment,
    aggregate_goodput,
    TrialSpec,
    execute_trial,
    run_campaign,
    trials_for_spec,
)
from repro.experiments.figures import figure2_range_slow, figure8_goodput
from repro.net.node import Node
from repro.workload.scenario import Scenario, ScenarioConfig

SPEC_KWARGS = dict(scale="quick", seeds=2, x_values=[55])


class TestSerialExecution:
    def test_records_returned_in_trial_order(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, **SPEC_KWARGS)
        records = run_campaign(trials, jobs=1)
        assert [r.key for r in records] == [t.key for t in trials]

    def test_progress_reports_every_completion(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        calls = []
        run_campaign(trials, jobs=1, progress=lambda d, t, r: calls.append((d, t, r)))
        assert calls[0] == (0, len(trials), None)
        assert [d for d, _, r in calls if r is not None] == list(range(1, len(trials) + 1))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign([], jobs=0)


class TestMemory:
    def test_no_scenario_outlives_its_trial(self):
        # A finished trial's stack is one reference cycle; with the
        # collector off, only execute_trial's own collection can free it.
        trials = trials_for_spec(figure2_range_slow(), **SPEC_KWARGS)[:3]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_campaign(trials, jobs=1)
            alive = sum(isinstance(obj, Node) for obj in gc.get_objects())
        finally:
            if was_enabled:
                gc.enable()
        assert alive == 0

    def test_a_trial_runs_with_what_was_alive_before_it_frozen(self, monkeypatch):
        # Its collections then walk the trial's own objects only; the freeze
        # is undone after it, and a caller's own freeze is left alone.
        counts = []

        def scenario(config):
            counts.append(gc.get_freeze_count())
            return Scenario(config)

        monkeypatch.setattr(executor_module, "Scenario", scenario)
        trial = trials_for_spec(figure2_range_slow(), **SPEC_KWARGS)[0]
        execute_trial(trial)
        assert counts[0] > 0 and gc.get_freeze_count() == 0
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            execute_trial(trial)
            assert counts[1] == frozen and gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


class TestParallelDeterminism:
    def test_parallel_aggregates_identical_to_serial_runner(self):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, **SPEC_KWARGS)
        serial = aggregate_experiment(spec, run_campaign(trials, jobs=1))
        parallel = aggregate_experiment(spec, run_campaign(trials, jobs=2))
        assert parallel == serial

    def test_parallel_goodput_identical_to_serial(self):
        spec = figure8_goodput()
        trials = trials_for_spec(spec, scale="quick", seeds=1, variants=("gossip",))
        serial = aggregate_goodput(spec, run_campaign(trials, jobs=1))
        parallel = aggregate_goodput(spec, run_campaign(trials, jobs=2))
        assert parallel == serial

    def test_store_round_trip_preserves_aggregates(self, tmp_path):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        store = ResultStore(tmp_path / "fig2.jsonl")
        fresh = aggregate_experiment(spec, run_campaign(trials, jobs=1, store=store))
        reloaded = aggregate_experiment(spec, store.records())
        assert reloaded == fresh

    def test_parallel_campaign_with_store_matches_serial(self, tmp_path):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        store = ResultStore(tmp_path / "fig2.jsonl")
        with_store = aggregate_experiment(spec, run_campaign(trials, jobs=2, store=store))
        plain = aggregate_experiment(spec, run_campaign(trials, jobs=1))
        assert with_store == plain
        assert len(store.records()) == 2


_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched Scenario.run reaches the pool workers only through fork",
)


class TestFailingTrial:
    @_fork_only
    def test_pool_starts_no_queued_trial_and_stores_finished_ones(
        self, tmp_path, monkeypatch
    ):
        tiny = ScenarioConfig.quick(
            num_nodes=6, member_count=3, join_window_s=2.0,
            source_start_s=5.0, source_stop_s=15.0, duration_s=20.0,
        )
        trials = [
            TrialSpec(campaign="boom", x=float(n), variant="gossip", seed=n, scale="custom",
                      config=replace(tiny, seed=n, max_speed_mps=0.1 * n))
            for n in range(1, 11)
        ]
        assert len({trial.config.seed for trial in trials}) == len(trials) == 10
        failing_seed = trials[0].config.seed
        markers = tmp_path / "markers"
        markers.mkdir()
        production_run = Scenario.run

        def run(scenario):
            marker = markers / str(scenario.config.seed)
            marker.write_text("started")
            if scenario.config.seed == failing_seed:
                raise RuntimeError("trial failed")
            time.sleep(0.25)  # the failure lands while this trial still runs
            result = production_run(scenario)
            marker.write_text("finished")
            return result

        monkeypatch.setattr(Scenario, "run", run)
        store = ResultStore(tmp_path / "boom.jsonl")
        with pytest.raises(RuntimeError, match="trial failed"):
            run_campaign(trials, jobs=2, store=store)

        started = {int(path.name): path.read_text() for path in markers.iterdir()}
        assert trials[-1].config.seed not in started
        assert len(started) < len(trials)
        finished = {seed for seed, state in started.items() if state == "finished"}
        assert finished
        assert {record.seed for record in store.records()} == finished


class TestResume:
    def test_fully_stored_campaign_runs_no_trials(self, tmp_path, monkeypatch):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        store = ResultStore(tmp_path / "fig2.jsonl")
        first = run_campaign(trials, jobs=1, store=store)

        def explode(trial):
            raise AssertionError(f"stored trial {trial.key} was re-executed")

        monkeypatch.setattr(executor_module, "execute_trial", explode)
        resumed = run_campaign(trials, jobs=1, store=store)
        assert resumed == first

    def test_interrupted_campaign_resumes_with_remaining_trials_only(
        self, tmp_path, monkeypatch
    ):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, **SPEC_KWARGS)
        store = ResultStore(tmp_path / "fig2.jsonl")

        # Simulate a campaign killed after the first two trials completed.
        run_campaign(trials[:2], jobs=1, store=store)
        assert set(store.load()) == {t.key for t in trials[:2]}

        executed = []

        def counting(trial):
            executed.append(trial.key)
            return execute_trial(trial)

        monkeypatch.setattr(executor_module, "execute_trial", counting)
        records = run_campaign(trials, jobs=1, store=store)

        assert executed == [t.key for t in trials[2:]]
        assert set(store.load()) == {t.key for t in trials}
        # The stitched-together campaign matches an uninterrupted serial run.
        uninterrupted = aggregate_experiment(spec, run_campaign(trials, jobs=1))
        assert aggregate_experiment(spec, records) == uninterrupted

    def test_stored_record_of_another_config_is_rerun_and_superseded(
        self, tmp_path, monkeypatch
    ):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        store = ResultStore(tmp_path / "fig2.jsonl")
        run_campaign(trials, jobs=1, store=store)
        # The same keys now name other configs (say, a figure builder changed).
        changed = [
            replace(trial, config=replace(trial.config, packet_interval_s=1.0))
            for trial in trials
        ]
        executed = []

        def counting(trial):
            executed.append(trial.key)
            return execute_trial(trial)

        monkeypatch.setattr(executor_module, "execute_trial", counting)
        calls = []
        records = run_campaign(changed, jobs=1, store=store,
                               progress=lambda d, t, r: calls.append((d, t, r)))
        assert executed == [trial.key for trial in changed]
        assert calls[0] == (0, len(changed), None)
        assert store.load() == {record.key: record for record in records}
        assert [record.config["packet_interval_s"] for record in records] == [1.0, 1.0]

    @pytest.mark.parametrize("stored", [{"area_topology": "torus"}, {"num_nodes": "16"}],
                             ids=["retired_value", "wrong_type"])
    def test_stored_config_that_does_not_rebuild_is_rerun(
        self, stored, tmp_path, monkeypatch
    ):
        trials = trials_for_spec(figure2_range_slow(), scale="quick", seeds=1,
                                 x_values=[55], variants=("maodv",))
        store = ResultStore(tmp_path / "fig2.jsonl")
        fresh = run_campaign(trials, jobs=1, store=store)
        store.append(replace(fresh[0], config={**fresh[0].config, **stored}))
        executed = []

        def counting(trial):
            executed.append(trial.key)
            return fresh[0]

        monkeypatch.setattr(executor_module, "execute_trial", counting)
        assert run_campaign(trials, jobs=1, store=store) == fresh
        assert executed == [trials[0].key]
        assert store.load() == {fresh[0].key: fresh[0]}

    def test_resume_skip_count_reported_via_progress(self, tmp_path):
        spec = figure2_range_slow()
        trials = trials_for_spec(spec, scale="quick", seeds=1, x_values=[55])
        store = ResultStore(tmp_path / "fig2.jsonl")
        run_campaign(trials[:1], jobs=1, store=store)
        calls = []
        run_campaign(trials, jobs=1, store=store,
                     progress=lambda d, t, r: calls.append((d, t, r)))
        assert calls[0] == (1, len(trials), None)
