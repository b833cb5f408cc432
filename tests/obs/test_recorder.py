"""Flight recorder: ring wraparound, dumping, the null twin."""

import json

import pytest

from repro.obs import NULL_RECORDER, FlightRecorder
from repro.obs.spans import SpanTracker


class TestRing:
    def test_records_structured_events_in_order(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("engine.sample", 1.0, heap_depth=3)
        recorder.record("membership.join", 2.5, node=7)
        events = recorder.events()
        assert events == [
            {"t": 1.0, "kind": "engine.sample", "heap_depth": 3},
            {"t": 2.5, "kind": "membership.join", "node": 7},
        ]
        assert len(recorder) == 2
        assert recorder.dropped == 0

    def test_wraparound_keeps_newest_and_counts_dropped(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", float(index), index=index)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        assert [event["index"] for event in recorder.events()] == [6, 7, 8, 9]

    def test_kind_filter(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("a", 0.0)
        recorder.record("b", 1.0)
        recorder.record("a", 2.0)
        assert [event["t"] for event in recorder.events("a")] == [0.0, 2.0]

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("a", 0.0)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)


class TestDump:
    def test_dump_jsonl_round_trips(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.record("engine.sample", 1.0, heap_depth=3)
        recorder.record("membership.leave", 2.0, node=4)
        path = tmp_path / "flight.jsonl"
        assert recorder.dump_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "engine.sample",
            "membership.leave",
        ]

    def test_snapshot_summarises_occupancy(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(3):
            recorder.record("tick", float(index))
        assert recorder.snapshot() == {
            "capacity": 2,
            "retained": 2,
            "recorded": 3,
            "dropped": 1,
        }


class TestNullRecorder:
    def test_absorbs_everything(self, tmp_path):
        NULL_RECORDER.record("tick", 0.0, x=1)
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.events() == []
        assert NULL_RECORDER.dump_jsonl(tmp_path / "x.jsonl") == 0
        assert NULL_RECORDER.snapshot() == {}


class TestSpans:
    def test_span_aggregates_intervals(self):
        tracker = SpanTracker()
        span = tracker.span("medium.fanout")
        assert tracker.span("medium.fanout") is span
        with span:
            pass
        span.start()
        span.stop()
        snapshot = tracker.snapshot()["medium.fanout"]
        assert snapshot["count"] == 2
        assert snapshot["total_s"] >= 0.0
        assert snapshot["max_s"] <= snapshot["total_s"]

    def test_snapshot_omits_unused_spans(self):
        tracker = SpanTracker()
        tracker.span("never.entered")
        assert tracker.snapshot() == {}
