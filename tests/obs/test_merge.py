"""Telemetry merge laws: order-independence, associativity, labels.

There is one merge: :func:`repro.obs.merge.merge_snapshots` over the plain
dicts :meth:`repro.obs.Obs.snapshot` produces (process shard driver,
campaign aggregator, ``repro report --merged``).  This suite pins its laws:

* counters, histogram buckets and pooled reservoirs merge to the same
  snapshot under any permutation of the inputs;
* under-capacity reservoir merges are associative (the samples pool and
  sort); at capacity, pooling across all inputs and downsampling once
  keeps the result independent of input order;
* gauges keep the last written value under the documented
  last-with-updates rule, and per-input labels preserve each input's value
  verbatim;
* spans sum counts and totals and keep the largest max; recorder summaries
  sum capacities and totals; recorder events interleave by time, stably.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import FlightRecorder, MetricsRegistry, SpanTracker
from repro.obs.merge import (
    downsample_sorted,
    interleave_events,
    merge_snapshots,
    merge_telemetry,
    merge_top_fanout,
)

# Integer-valued observations: float addition over them is exact, so the
# permutation/associativity laws hold byte-for-byte (with arbitrary floats
# the summed `sum`/`mean` would differ in the last ulp across orders --
# real, but not the law under test).
_values = st.lists(
    st.integers(min_value=0, max_value=10_000).map(float), max_size=40
)
_value_groups = st.lists(_values, min_size=1, max_size=5)


def _snapshot_with(observations, reservoir_size=8):
    registry = MetricsRegistry(reservoir_size=reservoir_size)
    histogram = registry.histogram("medium.channel.fanout", reservoir=True)
    for value in observations:
        histogram.observe(value)
        registry.counter("medium.channel.deliveries").inc(int(value) % 7)
    return registry.snapshot()


class TestMergeLaws:
    @given(_value_groups, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_counters_and_buckets_are_permutation_independent(self, groups, rng):
        snapshots = [_snapshot_with(group) for group in groups]
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        forward = merge_snapshots(snapshots)
        permuted = merge_snapshots(shuffled)
        assert forward["metrics"] == permuted["metrics"]
        fwd = forward["histograms"]["medium.channel.fanout"]
        perm = permuted["histograms"]["medium.channel.fanout"]
        for key in ("count", "sum", "min", "max", "mean", "buckets"):
            assert fwd.get(key) == perm.get(key)

    @given(_value_groups)
    @settings(max_examples=60, deadline=None)
    def test_snapshot_merge_is_associative(self, groups):
        snapshots = [_snapshot_with(group) for group in groups]
        one_shot = merge_snapshots(snapshots)
        streamed = None
        for snapshot in snapshots:
            streamed = merge_telemetry(streamed, snapshot)
        # Streaming pairwise folds downsample intermediate reservoirs, so
        # exact aggregates must agree always; the reservoir itself must
        # agree whenever the pooled samples never exceeded capacity.
        for key in ("count", "sum", "min", "max", "mean", "buckets"):
            assert (
                streamed["histograms"]["medium.channel.fanout"].get(key)
                == one_shot["histograms"]["medium.channel.fanout"].get(key)
            )
        assert streamed["metrics"] == one_shot["metrics"]
        if sum(len(group) for group in groups) <= 8:
            assert streamed == one_shot

    @given(st.lists(_values, min_size=2, max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_pooled_reservoir_is_order_independent(self, groups, rng):
        snapshots = [_snapshot_with(group) for group in groups]
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        fwd = merge_snapshots(snapshots)["histograms"]["medium.channel.fanout"]
        perm = merge_snapshots(shuffled)["histograms"]["medium.channel.fanout"]
        assert fwd.get("reservoir") == perm.get("reservoir")
        assert fwd.get("quantiles") == perm.get("quantiles")
        assert len(fwd["reservoir"]["samples"]) <= fwd["reservoir"]["capacity"]

    @given(_values)
    @settings(max_examples=60, deadline=None)
    def test_a_single_input_merges_to_itself(self, values):
        snapshot = _snapshot_with(values)
        assert merge_snapshots([snapshot]) == snapshot


class TestDownsample:
    def test_fits_untouched(self):
        assert downsample_sorted([1, 2, 3], 8) == [1, 2, 3]

    def test_keeps_endpoints(self):
        samples = list(range(100))
        kept = downsample_sorted(samples, 10)
        assert len(kept) == 10
        assert kept[0] == 0
        assert kept[-1] == 99
        assert kept == sorted(kept)


class TestGaugeSemantics:
    def test_last_input_with_updates_wins(self):
        silent = MetricsRegistry()
        silent.gauge("engine.calendar.heap_depth")  # bound, never set
        active = MetricsRegistry()
        active.gauge("engine.calendar.heap_depth").set(42.0)
        folded = merge_snapshots([active.snapshot(), silent.snapshot()])
        gauge = folded["metrics"]["engine.calendar.heap_depth"]
        assert gauge == {"value": 42.0, "min": 42.0, "max": 42.0, "updates": 1}

    def test_labels_preserve_per_input_values(self):
        snapshots = []
        for depth in (10.0, 30.0):
            registry = MetricsRegistry()
            registry.gauge("engine.calendar.heap_depth").set(depth)
            snapshots.append(registry.snapshot())
        merged = merge_snapshots(
            snapshots, labels=["shard=0", "shard=1"]
        )["metrics"]
        assert merged["engine.calendar.heap_depth"]["value"] == 30.0
        assert merged["engine.calendar.heap_depth"]["min"] == 10.0
        assert merged["engine.calendar.heap_depth{shard=0}"] == (
            snapshots[0]["metrics"]["engine.calendar.heap_depth"]
        )
        assert merged["engine.calendar.heap_depth{shard=1}"]["value"] == 30.0


class TestRecorderMerge:
    def test_interleaves_by_time_stably(self):
        a = FlightRecorder(capacity=8)
        b = FlightRecorder(capacity=8)
        a.record("x", 1.0, who="a")
        b.record("x", 1.0, who="b")
        a.record("x", 3.0, who="a")
        b.record("x", 2.0, who="b")
        events = interleave_events([a.events(), b.events()])
        assert [event["t"] for event in events] == [1.0, 1.0, 2.0, 3.0]
        # Same-t events keep input (shard) order: a before b.
        assert [event["who"] for event in events[:2]] == ["a", "b"]
        # merge_snapshots interleaves carried event lists the same way.
        folded = merge_snapshots(
            [{"recorder_events": a.events()}, {"recorder_events": b.events()}]
        )
        assert folded["recorder_events"] == events

    def test_capacities_and_totals_sum(self):
        recorders = []
        for _ in range(3):
            recorder = FlightRecorder(capacity=4)
            for tick in range(6):  # overflows: recorded > retained
                recorder.record("tick", float(tick))
            recorders.append(recorder)
        folded = merge_snapshots([{"recorder": r.snapshot()} for r in recorders])
        assert folded["recorder"] == {
            "capacity": 12, "retained": 12, "recorded": 18, "dropped": 6,
        }


class TestSpanAndFanoutMerge:
    def test_spans_sum_and_max(self):
        trackers = []
        for total in (0.5, 1.5):
            tracker = SpanTracker()
            span = tracker.span("medium.fanout")
            span.count, span.total_s, span.max_s = 2, total, total / 2
            trackers.append(tracker)
        folded = merge_snapshots([{"spans": t.snapshot()} for t in trackers])
        assert folded["spans"]["medium.fanout"] == {
            "count": 4, "total_s": 2.0, "max_s": 0.75,
        }

    def test_top_fanout_sums_and_ranks(self):
        merged = merge_top_fanout(
            [[[1, 10], [2, 5]], [[2, 9], [3, 9]]], n=2
        )
        assert merged == [[2, 14], [1, 10]]

    def test_empty_merge_is_empty(self):
        assert merge_snapshots([]) == {}
        assert merge_telemetry(None, {"metrics": {"a.b.c": 1}}) == {
            "metrics": {"a.b.c": 1},
            "histograms": {},
        }
