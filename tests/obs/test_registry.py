"""Metric registry semantics: counters, gauges, histograms, snapshots."""

import json

from repro.obs import NULL_OBS, MetricsRegistry, ObsConfig, build_obs


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("mac.csma.defers")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_same_name_shares_one_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b.c") is registry.counter("a.b.c")


class TestGauge:
    def test_tracks_extrema_and_updates(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("engine.calendar.heap_depth")
        for value in (5.0, 2.0, 9.0):
            gauge.set(value)
        assert gauge.value == 9.0
        assert gauge.min == 2.0
        assert gauge.max == 9.0
        assert gauge.updates == 3


class TestHistogram:
    def test_fixed_buckets_count_exactly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("medium.channel.fanout")
        for value in (1, 2, 3, 500):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["min"] == 1
        assert snapshot["max"] == 500
        buckets = dict((str(bound), count) for bound, count in snapshot["buckets"])
        assert buckets["1"] == 1
        assert buckets["2"] == 1
        assert buckets["4"] == 1
        assert buckets["+inf"] == 1

    def test_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("x.y.z")
        assert histogram.mean == 0.0
        histogram.observe(2)
        histogram.observe(4)
        assert histogram.mean == 3.0

    def test_reservoir_quantiles_deterministic(self):
        def fill(registry):
            histogram = registry.histogram("gossip.agent.latency", reservoir=True)
            for value in range(1000):
                histogram.observe(float(value % 97))
            return histogram.snapshot()

        first = fill(MetricsRegistry(reservoir_size=64))
        second = fill(MetricsRegistry(reservoir_size=64))
        assert first == second
        assert first["quantiles"]["p50"] is not None

    def test_reservoir_snapshot_is_the_sorted_sample(self):
        # Algorithm R never holds more than capacity, so the snapshot is the
        # sorted reservoir itself -- nothing to downsample.
        histogram = MetricsRegistry(reservoir_size=16).histogram("a.b.c", reservoir=True)
        for value in range(1000):
            histogram.observe(float(value))
        reservoir = histogram.snapshot()["reservoir"]
        assert reservoir["capacity"] == 16
        assert reservoir["samples"] == sorted(histogram._reservoir)
        assert len(reservoir["samples"]) == 16


class TestSnapshot:
    def test_snapshot_is_deterministic_and_json_ready(self):
        def build():
            registry = MetricsRegistry(reservoir_size=32)
            registry.counter("b.y.two").inc(2)
            registry.counter("a.x.one").inc(1)
            registry.gauge("c.z.depth").set(4.5)
            histogram = registry.histogram("a.x.sizes", reservoir=True)
            for value in (1, 8, 64):
                histogram.observe(value)
            return registry.snapshot()

        first, second = build(), build()
        assert first == second
        assert json.loads(json.dumps(first)) == first
        assert list(first["metrics"]) == sorted(first["metrics"])

    def test_set_metrics_bulk_publish(self):
        registry = MetricsRegistry()
        registry.set_metrics([("a.b.c", 3), ("d.e.f", 1.5)])
        assert registry.counter("a.b.c").value == 3
        assert registry.counter("d.e.f").value == 1.5


class TestBuildObs:
    def test_no_config_returns_the_shared_facade(self):
        assert build_obs(None) is NULL_OBS

    def test_disabled_config_returns_the_shared_facade(self):
        assert build_obs(ObsConfig(enabled=False)) is NULL_OBS

    def test_shared_facade_is_switched_off(self):
        assert NULL_OBS.enabled is False

    def test_enabled_config_is_switched_on(self):
        assert build_obs(ObsConfig(enabled=True)).enabled

    def test_enabled_config_builds_live_facade(self):
        obs = build_obs(ObsConfig(enabled=True))
        assert obs.enabled
        obs.counter("a.b.c").inc()
        assert obs.snapshot()["metrics"]["a.b.c"] == 1
