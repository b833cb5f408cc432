"""`repro report` and the --obs CLI plumbing (smoke level)."""

import json

import pytest

from repro.cli import build_parser, main

#: A tiny but complete instrumented run (same timing family as the golden
#: scenarios: joins, a short source phase, recovery tail).
_RUN_ARGS = [
    "run",
    "--nodes", "10",
    "--members", "4",
    "--seed", "5",
]


@pytest.fixture(scope="module")
def telemetry_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "telemetry.json"
    assert main(_RUN_ARGS + ["--obs-out", str(path)]) == 0
    return path


class TestParser:
    def test_run_obs_flags(self):
        args = build_parser().parse_args(["run", "--obs", "--obs-out", "t.json"])
        assert args.obs is True
        assert args.obs_out == "t.json"
        assert args.obs_dump is None

    def test_campaign_obs_flag(self):
        args = build_parser().parse_args(["campaign", "fig2", "--obs"])
        assert args.obs is True

    def test_report_arguments(self):
        args = build_parser().parse_args(
            ["report", "store.jsonl", "--key", "k", "--top", "5", "--json"]
        )
        assert args.path == "store.jsonl"
        assert args.key == "k"
        assert args.top == 5
        assert args.as_json is True


class TestRunObs:
    def test_obs_out_writes_snapshot(self, telemetry_json):
        payload = json.loads(telemetry_json.read_text())
        assert payload["metrics"]["medium.channel.transmissions"] > 0
        assert "medium.channel.fanout" in payload["histograms"]

    def test_obs_prints_text_report(self, capsys):
        assert main(_RUN_ARGS + ["--obs"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry" in out
        assert "medium.channel.fanout" in out
        assert "window_hit_rate" in out

    def test_obs_dump_writes_flight_recorder(self, tmp_path):
        dump = tmp_path / "flight.jsonl"
        assert main(_RUN_ARGS + ["--obs-dump", str(dump)]) == 0
        kinds = {json.loads(line)["kind"] for line in dump.read_text().splitlines()}
        assert "engine.sample" in kinds


class TestReport:
    def test_report_renders_snapshot_file(self, telemetry_json, capsys):
        assert main(["report", str(telemetry_json)]) == 0
        out = capsys.readouterr().out
        assert "spatial.index.window_hit_rate" in out
        assert "window_resolves" in out and "window_patch_hits" not in out
        assert "Top fan-out offenders" in out

    def test_report_json_mode(self, telemetry_json, capsys):
        assert main(["report", str(telemetry_json), "--json", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["derived"]["spatial.index.window_hit_rate"] <= 1.0
        metrics = payload["metrics"]
        assert payload["derived"]["mac.csma.defers_per_tx"] == metrics["mac.csma.defers"] / (
            metrics["mac.csma.broadcast_transmissions"] + metrics["mac.csma.data_transmissions"])
        assert len(payload["top_fanout"]) <= 3

    def test_report_rejects_uninstrumented_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "no instrumented records" in capsys.readouterr().err

    def test_report_rejects_pytest_benchmark_artifact(self, tmp_path, capsys):
        # Shaped like pytest-benchmark's --benchmark-json output: indented,
        # so some lines ("vme", 0.6) are valid JSON but no record.
        artifact = tmp_path / "BENCH_1.json"
        artifact.write_text(json.dumps({
            "machine_info": {"cpu": {"flags": ["fpu", "vme"]}},
            "benchmarks": [{
                "name": "test_fig6[40]",
                "stats": {"mean": 0.5, "data": [0.4, 0.6]},
                "extra_info": {"events_per_sec": 2000.0},
            }],
        }, indent=4))
        assert main(["report", str(artifact)]) == 2
        assert "no instrumented records" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/telemetry.json"]) == 2
        assert capsys.readouterr().err


def _stored_record(key, transmissions, telemetry=True):
    from repro.campaign import TrialRecord

    snapshot = {}
    if telemetry:
        snapshot = {
            "metrics": {"medium.channel.transmissions": transmissions},
            "histograms": {
                "medium.channel.fanout": {
                    "count": 4, "sum": 8.0, "min": 1.0, "max": 3.0,
                    "mean": 2.0,
                    "buckets": [[1, 1], [2, 2], [4, 1]],
                }
            },
        }
    return TrialRecord(
        key=key, campaign="fig7", x=40.0, variant="gossip", seed=1,
        scale="quick", metrics={"mean": 1.0}, telemetry=snapshot,
    )


@pytest.fixture()
def obs_store(tmp_path):
    from repro.campaign import ResultStore

    store = ResultStore(tmp_path / "campaign.jsonl")
    store.append(_stored_record("fig7/40/gossip/1", 10))
    store.append(_stored_record("fig7/50/gossip/1", 30))
    store.append(_stored_record("fig8/40/gossip/1", 0, telemetry=False))
    return store


class TestReportMerged:
    def test_merged_folds_instrumented_trials(self, obs_store, capsys):
        assert main(["report", str(obs_store.path), "--merged"]) == 0
        out = capsys.readouterr().out
        assert "(merged, 2 trials)" in out
        # Counters summed across both instrumented trials.
        assert "40" in out

    def test_merged_key_substring_filter(self, obs_store, capsys):
        assert main(
            ["report", str(obs_store.path), "--merged", "--key", "fig7/40"]
        ) == 0
        assert "(merged, 1 trials)" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--merged"]])
    def test_undecodable_lines_are_reported(self, obs_store, flags, capsys):
        with open(obs_store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "campaign": "fig7", "x": 4\n')
            handle.write("\n0.6\n\n")
            handle.write('{"key": "tail", "campaign": "fig7", "vari')
        assert main(["report", str(obs_store.path)] + flags) == 0
        err = capsys.readouterr().err
        assert err.strip() == f"skipped 3 undecodable line(s) in {obs_store.path}"

    def test_clean_store_reports_nothing_skipped(self, obs_store, capsys):
        assert main(["report", str(obs_store.path)]) == 0
        assert capsys.readouterr().err == ""

    def test_merged_without_instrumented_records(self, obs_store, capsys):
        assert main(
            ["report", str(obs_store.path), "--merged", "--key", "fig8"]
        ) == 2
        assert "no instrumented records" in capsys.readouterr().err


class TestReportDiff:
    def test_diff_renders_nonempty_delta(self, telemetry_json, tmp_path, capsys):
        other = tmp_path / "other.json"
        assert main(
            ["run", "--nodes", "10", "--members", "4", "--seed", "6",
             "--obs-out", str(other)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["report", str(telemetry_json), str(other), "--diff"]
        ) == 0
        out = capsys.readouterr().out
        assert "(no differences)" not in out
        assert str(telemetry_json) in out

    def test_diff_against_itself_shows_no_differences(
        self, telemetry_json, capsys
    ):
        assert main(
            ["report", str(telemetry_json), str(telemetry_json), "--diff"]
        ) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_diff_requires_second_path(self, telemetry_json, capsys):
        assert main(["report", str(telemetry_json), "--diff"]) == 2
        assert "--diff needs two inputs" in capsys.readouterr().err

    def test_second_path_requires_diff(self, telemetry_json, capsys):
        assert main(
            ["report", str(telemetry_json), str(telemetry_json)]
        ) == 2
        assert "--diff" in capsys.readouterr().err

