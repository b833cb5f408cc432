"""Tests for the JSONL result store (append, dedupe, robustness)."""

from repro.campaign.store import ResultStore, TrialRecord


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
        params={"range_m": 55.0},
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
        assert store.completed_keys() == {"a", "b"}

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

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-written.jsonl")
        assert store.load() == {}
        assert store.completed_keys() == set()
