"""Tests for the JSONL result store (append, dedupe, robustness, old stores)."""

import json
import re
import shutil
from pathlib import Path

import pytest

import repro.campaign.executor as executor_module
from repro.campaign import execute_trial, trials_for_spec
from repro.campaign.store import ResultStore, TrialRecord
from repro.campaign.trials import config_from_dict, config_to_dict
from repro.cli import main
from repro.experiments.figures import all_figures
from repro.workload.scenario import ScenarioConfig

HERE = Path(__file__).resolve().parent


def _record(key: str, seed: int = 1, mean: float = 10.0) -> TrialRecord:
    return TrialRecord(
        key=key,
        campaign="fig2",
        x=55.0,
        variant="gossip",
        seed=seed,
        scale="quick",
        metrics={
            "mean": mean,
            "minimum": 8,
            "maximum": 12,
            "std": 1.0,
            "delivery_ratio": 0.9,
            "goodput": 91.5,
            "packets_sent": 81,
            "events_processed": 1000,
        },
        goodput_by_member={3: 90.0, 7: 93.0},
        member_counts={3: 72, 7: 75},
        protocol_stats={"gossip.requests_sent": 40.0},
    )


class TestRecordCodec:
    def test_json_round_trip_is_exact(self):
        record = _record("fig2|x=55.0|variant=gossip|seed=1|scale=quick",
                         mean=79.83333333333334)
        assert TrialRecord.from_json(record.to_json()) == record

    def test_member_keys_survive_as_ints(self):
        record = TrialRecord.from_json(_record("k").to_json())
        assert set(record.goodput_by_member) == {3, 7}
        assert set(record.member_counts) == {3, 7}


class TestResultStore:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        assert not store.exists()
        store.append(_record("a"))
        store.append(_record("b"))
        loaded = store.load()
        assert set(loaded) == {"a", "b"}

    def test_duplicate_keys_dedupe_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        store.append(_record("a", mean=1.0))
        store.append(_record("a", mean=2.0))
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded["a"].metrics["mean"] == 2.0

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.append(_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "campaign": "fig2", "x": 55.0, "vari')
        assert set(store.load()) == {"a"}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.append(_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        store.append(_record("b"))
        assert set(store.load()) == {"a", "b"}

    def test_load_and_iter_records_skip_the_same_lines(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.append(_record("a", mean=1.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
            handle.write('{"key": "torn", "campaign": "fig2", "x": 55\n')
            handle.write('"not a record"\n')
        store.append(_record("b"))
        store.append(_record("a", mean=2.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "tail", "campaign": "fig2", "vari')
        streamed = [record.key for record in store.iter_records()]
        assert streamed == ["a", "b", "a"]
        loaded = store.load()
        assert list(loaded) == ["a", "b"] and set(streamed) == set(loaded)
        assert loaded["a"].metrics["mean"] == 2.0

    def test_skipped_counts_undecodable_lines_but_not_blank_ones(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.append(_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "campaign": "fig2", "x": 55\n')
            handle.write("\n  \n")
            handle.write("0.6\n")
            handle.write('{"key": "tail", "campaign": "fig2", "vari')
        assert store.skipped == 0
        assert set(store.load()) == {"a"}
        assert store.skipped == 3
        # Every pass recounts instead of accumulating.
        assert [record.key for record in store.iter_records()] == ["a"]
        assert store.skipped == 3

    def test_record_with_malformed_fields_is_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.append(_record("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "campaign": "fig2", "x": 55.0, "variant": "gossip", '
                         '"seed": 1, "scale": "quick", "metrics": "ab"}\n')
        assert set(store.load()) == {"a"}
        assert store.skipped == 1

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-written.jsonl")
        assert store.load() == {}
        assert store.skipped == 0


#: One stored line exactly as ``TrialRecord.to_json()`` wrote it while
#: ``FloodingConfig`` and ``OdmrpConfig`` still lived in their router modules:
#: an ODMRP trial with non-default flooding and ODMRP parameters.
LINE_BEFORE_CONFIG_MOVE = (
    '{"version":1,"key":"grid|x=0.0|variant=maodv|seed=3|scale=custom","campaign":"grid",'
    '"x":0.0,"variant":"maodv","seed":3,"scale":"custom","metrics":{"delivery_ratio":0.5,'
    '"packets_sent":81},"goodput_by_member":{},"member_counts":{"2":40},"protocol_stats":'
    '{},"params":{},"config":{"num_nodes":16,"area_width_m":150.0,"area_height_m":150.0,"'
    'transmission_range_m":60.0,"bitrate_bps":2000000.0,"area_topology":"flat","min_speed'
    '_mps":0.0,"max_speed_mps":0.2,"max_pause_s":80.0,"mobility_config":{"model":"random_'
    'waypoint","gm_step_s":2.0,"gm_alpha":0.85,"gm_mean_speed_mps":null,"gm_speed_sigma_m'
    'ps":null,"gm_direction_sigma_rad":0.4,"gm_edge_margin_m":null,"rpgm_group_size":4,"r'
    'pgm_group_radius_m":25.0,"rpgm_member_speed_mps":null,"rpgm_align_multicast":true,"m'
    'h_blocks_x":4,"mh_blocks_y":4,"mh_turn_probability":0.25,"mh_pause_probability":0.5}'
    ',"member_count":6,"join_window_s":4.0,"source_start_s":15.0,"source_stop_s":55.0,"pa'
    'cket_interval_s":0.5,"payload_bytes":64,"duration_s":65.0,"group_count":1,"sources_p'
    'er_group":1,"churn_config":{"model":"none","start_s":0.0,"stop_s":null,"events_per_m'
    'inute":6.0,"mean_on_s":120.0,"mean_off_s":120.0,"onoff_correlated":false,"flash_at_s'
    '":0.0,"flash_joiners":0,"flash_stay_s":null,"script":[],"min_members":1,"max_members'
    '":null,"pool":null},"protocol":"odmrp","gossip_enabled":true,"gossip_shared_round_rn'
    'g":false,"gossip_config":{"gossip_interval_s":1.0,"lost_buffer_size":10,"member_cach'
    'e_size":10,"lost_table_size":200,"history_size":100,"p_anon":0.7,"accept_probability'
    '":0.5,"max_gossip_hops":16,"max_messages_per_reply":10,"enable_locality":true,"enabl'
    'e_cached_gossip":true,"reply_when_empty":false,"initial_expected_seq":1,"request_bas'
    'e_size_bytes":20,"request_per_lost_entry_bytes":6,"reply_base_size_bytes":16},"aodv_'
    'config":{"hello_interval_s":0.6,"allowed_hello_loss":4,"active_route_timeout_s":10.0'
    ',"rreq_initial_ttl":8,"rreq_ttl_increment":8,"rreq_max_ttl":32,"rreq_retries":2,"rou'
    'te_discovery_timeout_s":1.0,"rreq_id_cache_s":5.0,"packet_buffer_limit":64,"broadcas'
    't_jitter_s":0.01,"rreq_size_bytes":24,"rrep_size_bytes":20,"rerr_size_bytes":20,"hel'
    'lo_size_bytes":12},"maodv_config":{"group_hello_interval_s":5.0,"flood_ttl":16,"repl'
    'y_wait_s":0.5,"join_retries":3,"repair_retries":2,"repair_wait_s":0.75,"join_request'
    '_size_bytes":28,"join_reply_size_bytes":24,"mact_size_bytes":16,"group_hello_size_by'
    'tes":16,"nearest_member_update_size_bytes":12,"data_header_bytes":20,"data_cache_siz'
    'e":4096,"nearest_member_infinity":64,"track_nearest_member":true,"broadcast_jitter_s'
    '":0.01,"leader_handoff":true,"handoff_wait_s":1.0,"handoff_fallback_s":6.0,"leader_h'
    'andoff_size_bytes":20},"flooding_config":{"flood_ttl":9,"rebroadcast_count":3,"rebro'
    'adcast_interval_s":0.25,"broadcast_jitter_s":0.01,"data_cache_size":4096,"data_heade'
    'r_bytes":20},"odmrp_config":{"join_query_interval_s":2.0,"forwarding_lifetime_s":7.5'
    ',"flood_ttl":12,"join_query_size_bytes":20,"join_reply_size_bytes":20,"data_header_b'
    'ytes":20,"data_cache_size":4096,"broadcast_jitter_s":0.01},"mac_config":{"slot_time_'
    's":2e-05,"sifs_s":1e-05,"difs_s":5e-05,"cw_min":16,"cw_max":1024,"retry_limit":4,"ac'
    'k_timeout_s":0.0015,"ack_size_bytes":14,"queue_limit":64},"obs_config":{"enabled":fa'
    'lse,"sample_interval_s":1.0,"flight_recorder_capacity":4096,"reservoir_size":512,"to'
    'p_fanout_n":10,"dump_on_error_path":null},"shards":1,"shard_mode":"sequential","shar'
    'd_window_s":null,"seed":3},"groups":{},"membership":{}}'
)


#: The five protocol configs a stored config may hold, retired whole.
RETIRED_CONFIGS = ("aodv_config", "maodv_config", "flooding_config", "odmrp_config", "mac_config")

#: The fields of the mobility, gossip and obs configs a stored config may
#: hold that are keyword defaults of the mobility models and constants of
#: ``repro.core.gossip`` and ``repro.obs`` now.
RETIRED_NESTED_FIELDS = (
    *(f"mobility_config.{name}" for name in (
        "gm_step_s", "gm_alpha", "gm_mean_speed_mps", "gm_speed_sigma_mps",
        "gm_direction_sigma_rad", "gm_edge_margin_m", "rpgm_group_size",
        "rpgm_group_radius_m", "rpgm_member_speed_mps", "mh_blocks_x",
        "mh_blocks_y", "mh_turn_probability", "mh_pause_probability",
    )),
    *(f"gossip_config.{name}" for name in (
        "member_cache_size", "lost_table_size", "accept_probability",
        "max_gossip_hops", "max_messages_per_reply", "initial_expected_seq",
        "request_base_size_bytes", "request_per_lost_entry_bytes",
        "reply_base_size_bytes",
    )),
    *(f"obs_config.{name}" for name in (
        "sample_interval_s", "flight_recorder_capacity", "reservoir_size",
        "top_fanout_n",
    )),
)

#: The retired keys the line holds at values this version does not run:
#: key -> (stored value, value this version runs).
LINE_NON_DEFAULTS = {
    "flooding_config.flood_ttl": (9, 16),
    "flooding_config.rebroadcast_count": (3, 1),
    "odmrp_config.join_query_interval_s": (2.0, 3.0),
    "odmrp_config.forwarding_lifetime_s": (7.5, 9.0),
    "odmrp_config.flood_ttl": (12, 16),
}


def _without(config: dict, retired: set) -> dict:
    """``config`` minus the ``retired`` keys; ``a.b`` names key ``b`` of ``a``."""
    kept = {name: value for name, value in config.items() if name not in retired}
    for name in retired:
        parent, _, key = name.partition(".")
        if key:
            kept[parent] = {k: v for k, v in kept[parent].items() if k != key}
    return kept


class TestStoredLineCompatibility:
    def test_line_written_before_the_config_move_parses_but_its_config_is_refused(
        self, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        path.write_text(LINE_BEFORE_CONFIG_MOVE + "\n")
        store = ResultStore(path)
        loaded = store.records()
        assert store.skipped == 0
        stored_config = json.loads(LINE_BEFORE_CONFIG_MOVE)["config"]
        expected = TrialRecord(
            key="grid|x=0.0|variant=maodv|seed=3|scale=custom",
            campaign="grid",
            x=0.0,
            variant="maodv",
            seed=3,
            scale="custom",
            metrics={"delivery_ratio": 0.5, "packets_sent": 81},
            member_counts={2: 40},
            config=stored_config,
        )
        assert loaded == [expected]
        # Writing the record back drops only the retired ``params`` field.
        assert expected.to_json() == LINE_BEFORE_CONFIG_MOVE.replace('"params":{},', "")
        # The trial ran flooding and ODMRP parameters this version no longer
        # has, so its config does not rebuild as today's.
        with pytest.raises(ValueError, match=r"'flooding_config\.flood_ttl' = 9 "):
            config_from_dict(loaded[0].config)
        # It differs from today's config only by the retired keys.
        retired = {
            "area_topology",
            "gossip_shared_round_rng",
            "gossip_config.reply_when_empty",
            *RETIRED_CONFIGS,
            *RETIRED_NESTED_FIELDS,
        }
        assert config_to_dict(ScenarioConfig.quick(seed=3, protocol="odmrp")) == _without(
            stored_config, retired
        )

    @pytest.mark.parametrize("key", LINE_NON_DEFAULTS)
    def test_each_non_default_value_of_the_line_is_refused_by_name(self, key):
        config = json.loads(LINE_BEFORE_CONFIG_MOVE)["config"]
        for name, (_, runs_as) in LINE_NON_DEFAULTS.items():
            parent, _, field = name.partition(".")
            config[parent][field] = runs_as
        assert config_from_dict(config) == ScenarioConfig.quick(seed=3, protocol="odmrp")
        parent, _, field = key.partition(".")
        stored = config[parent][field] = LINE_NON_DEFAULTS[key][0]
        with pytest.raises(ValueError, match=f"'{key}' = {stored!r} is retired"):
            config_from_dict(config)

    def test_retired_fields_at_the_values_this_version_runs_are_dropped(self):
        data = config_to_dict(ScenarioConfig.quick(seed=2))
        old = {
            **data,
            "area_topology": "flat",
            "gossip_shared_round_rng": False,
            "medium_index": "naive",
            "gossip_config": {**data["gossip_config"], "reply_when_empty": False},
            "maodv_config": {"track_nearest_member": True, "leader_handoff": True,
                             "flood_ttl": 16},
            "flooding_config": {"rebroadcast_count": 1, "rebroadcast_interval_s": 0.25},
            "mac_config": {"retry_limit": 4, "slot_time_s": 2e-05},
        }
        assert config_from_dict(old) == config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("flooding_config.rebroadcast_count", 3),
            ("area_topology", "torus"),
            ("gossip_config.reply_when_empty", True),
            ("mac_config.retry_limit", 7),
        ],
    )
    def test_retired_field_at_another_value_raises_naming_it(self, key, value):
        data = config_to_dict(ScenarioConfig.quick(seed=2))
        parent, _, field = key.rpartition(".")
        if parent:
            data[parent] = {**data.get(parent, {}), field: value}
        else:
            data[field] = value
        with pytest.raises(ValueError, match=f"'{key}' = {value!r} is retired"):
            config_from_dict(data)

    @pytest.mark.parametrize("key", ["no_such_field", "obs_config.no_such_field",
                                     "aodv_config.no_such_field"])
    def test_key_no_version_had_raises_naming_it(self, key):
        data = config_to_dict(ScenarioConfig.quick(seed=2))
        parent, _, field = key.rpartition(".")
        if parent:
            data[parent] = {**data.get(parent, {}), field: 1}
        else:
            data[field] = 1
        with pytest.raises(ValueError, match=f"'{key}' names no field"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("mobility_config", None), ("churn_config", None),
         ("gossip_config", [0.5]), ("obs_config", "off")],
    )
    def test_nested_config_that_is_not_a_mapping_raises_naming_it(self, key, value):
        data = {**config_to_dict(ScenarioConfig.quick(seed=2)), key: value}
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a ")):
            config_from_dict(data)

    def test_line_with_params_parses_into_the_record_minus_params(self):
        line = (HERE / "store_with_params_fig8.jsonl").read_text().splitlines()[0]
        payload = json.loads(line)
        assert payload.pop("params") == {"range_m": 45.0, "speed_mps": 0.2}
        record = TrialRecord.from_json(line)
        assert record == TrialRecord.from_json(json.dumps(payload))
        assert json.loads(record.to_json()) == payload


#: Stores written before ``params`` was dropped: the ``repro campaign``
#: arguments and ``trials_for_spec`` keywords of each, and the table it prints.
OLD_STORES = {
    "fig8": (
        ["--seeds", "1"],
        {"variants": ("gossip",)},
        "Gossip goodput per member (range, speed combinations)\n"
        "combination   mean    min     max     members\n"
        "------------  ------  ------  ------  -------\n"
        "45m @ 0.2m/s  95.83   75.00   100.00  6      \n"
        "75m @ 0.2m/s  100.00  100.00  100.00  6      \n"
        "45m @ 2m/s    100.00  100.00  100.00  6      \n"
        "75m @ 2m/s    100.00  100.00  100.00  6      \n",
    ),
    "fig7": (
        ["--seeds", "1", "--points", "40"],
        {"x_values": [40]},
        "Packet delivery vs number of nodes (range 55 m)\n"
        "# nodes  variant  mean  min   max   ratio  goodput%\n"
        "-------  -------  ----  ----  ----  -----  --------\n"
        "40.0     gossip   81.0  81.0  81.0  1.000  100.0   \n"
        "40.0     maodv    80.8  80.0  81.0  0.997  100.0   \n",
    ),
}


class TestOldStores:
    @pytest.mark.parametrize("figure", sorted(OLD_STORES))
    def test_old_store_resumes_with_no_trial_rerun(self, figure, tmp_path, capsys,
                                                   monkeypatch):
        store = tmp_path / f"{figure}.jsonl"
        shutil.copy(HERE / f"store_with_params_{figure}.jsonl", store)

        def explode(trial):
            raise AssertionError(f"stored trial {trial.key} was re-executed")

        monkeypatch.setattr(executor_module, "execute_trial", explode)
        arguments, _, table = OLD_STORES[figure]
        assert main(["campaign", figure, *arguments, "--out", str(store), "--resume"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines(keepends=True)
        stored = len(ResultStore(store).load())
        assert f"resume: {stored}/{stored} trials already stored" in lines[0]
        assert lines[-1] == f"results stored in {store}\n"
        assert "".join(lines[1:-1]) == table
        assert captured.err == ""

    def test_store_of_a_retired_behaviour_reruns_every_trial(self, tmp_path, capsys):
        # The same store, as if its trials had run on a torus: no record is
        # the trial this version runs, so each one runs again and the fresh
        # record supersedes the stored line.
        store = tmp_path / "fig7.jsonl"
        payloads = [
            json.loads(line)
            for line in (HERE / "store_with_params_fig7.jsonl").read_text().splitlines()
        ]
        for payload in payloads:
            payload["config"]["area_topology"] = "torus"
        store.write_text("".join(json.dumps(payload) + "\n" for payload in payloads))
        arguments, _, table = OLD_STORES["fig7"]
        assert main(["campaign", "fig7", *arguments, "--out", str(store), "--resume"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "resume:" not in lines[0]
        assert ["[1/2]" in lines[0], "[2/2]" in lines[1]] == [True, True]
        assert "".join(lines[2:-1]) == table
        assert len(list(ResultStore(store).iter_records())) == 4
        for record in ResultStore(store).load().values():
            assert "area_topology" not in record.config

    @pytest.mark.parametrize("figure", sorted(OLD_STORES))
    def test_fresh_trials_reproduce_the_stored_records(self, figure):
        _, keywords, _ = OLD_STORES[figure]
        trials = trials_for_spec(all_figures()[figure], seeds=1, **keywords)
        stored = ResultStore(HERE / f"store_with_params_{figure}.jsonl").load()
        assert [trial.key for trial in trials] == list(stored)
        for trial in trials:
            old = stored[trial.key]
            new = execute_trial(trial)
            assert config_from_dict(old.config) == trial.config
            assert new == TrialRecord(**{**vars(old), "config": new.config})
