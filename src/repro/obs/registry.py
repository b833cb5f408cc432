"""The metrics registry: counters, gauges and histograms.

Metric names follow the repo-wide ``layer.subsystem.name`` scheme (see
:mod:`repro.obs.naming`), e.g. ``medium.channel.fanout`` or
``spatial.index.window_hits``.  A :class:`MetricsRegistry` creates metrics
on first request and returns the same instance for the same name
thereafter, so probes in different objects share one aggregate.  Registries
of different runs or shards are combined through their snapshots
(:func:`repro.obs.merge.merge_snapshots`), never object to object.

Zero-overhead contract
----------------------
Every metric class has a no-op twin with the same interface, and the module
exposes one shared singleton of each (:data:`NULL_COUNTER`,
:data:`NULL_GAUGE`, :data:`NULL_HISTOGRAM`) plus :data:`NULL_REGISTRY`,
whose factory methods hand those singletons out.  Instrumented code binds
its metrics once, at construction time; with obs disabled every binding is
the same shared no-op object and hot paths guard their probe sites with a
single pre-computed boolean, so the simulation allocates and computes
exactly what it did before the obs layer existed.

Determinism
-----------
Snapshots are plain dicts with sorted keys.  Reservoir histograms use a
private :class:`random.Random` seeded from the metric name (CRC32), so two
runs feeding identical observation sequences produce byte-identical
snapshots -- simulation RNG streams are never touched.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence

from .merge import ordered_quantile


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins); tracks its seen extrema."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self) -> None:
        self.value = 0.0
        self.min = None
        self.max = None
        self.updates = 0


#: Default fixed buckets: powers of two, a good fit for fan-out sizes and
#: queue depths at every scale the benches run.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """A distribution of observed values.

    Two complementary modes, selectable per metric:

    * **fixed-bucket** (default): cumulative-style upper-bound buckets plus
      an overflow bucket, O(buckets) per observation, exact counts;
    * **reservoir**: uniform sample of ``reservoir_size`` observations
      (Algorithm R) from which quantiles are estimated; the reservoir RNG is
      seeded from the metric name so snapshots are deterministic.

    Both modes always track count/sum/min/max exactly.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total", "min",
                 "max", "_reservoir", "_reservoir_size", "_rng")

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = DEFAULT_BUCKETS,
        reservoir_size: int = 0,
    ):
        self.name = name
        self.buckets: Optional[List[float]] = (
            sorted(buckets) if buckets is not None else None
        )
        self.bucket_counts: Optional[List[int]] = (
            [0] * (len(self.buckets) + 1) if self.buckets is not None else None
        )
        self._reservoir_size = reservoir_size
        self._reservoir: List[float] = []
        self._rng = (
            random.Random(zlib.crc32(name.encode("utf-8")))
            if reservoir_size > 0
            else None
        )
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        counts = self.bucket_counts
        if counts is not None:
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        if self._rng is not None:
            reservoir = self._reservoir
            if len(reservoir) < self._reservoir_size:
                reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self._reservoir_size:
                    reservoir[slot] = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 before the first one)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile from the reservoir (``None`` without one)."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        if self.bucket_counts is not None:
            self.bucket_counts = [0] * len(self.bucket_counts)
        self._reservoir = []
        if self._rng is not None:
            self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict summary (JSON-ready, deterministic)."""
        data: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        if self.buckets is not None:
            data["buckets"] = [
                [bound, count]
                for bound, count in zip(self.buckets, self.bucket_counts)
            ] + [["+inf", self.bucket_counts[-1]]]
        if self._reservoir_size:
            samples = sorted(self._reservoir)
            data["reservoir"] = {
                "capacity": self._reservoir_size,
                "samples": samples,
            }
            data["quantiles"] = {
                "p50": ordered_quantile(samples, 0.50),
                "p90": ordered_quantile(samples, 0.90),
                "p99": ordered_quantile(samples, 0.99),
            }
        return data


class MetricsRegistry:
    """Creates and holds the run's metrics, keyed by dotted name."""

    def __init__(self, reservoir_size: int = 512):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._default_reservoir = reservoir_size

    @property
    def enabled(self) -> bool:
        """True: this is a live registry (the null twin reports False)."""
        return True

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first request."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first request."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = DEFAULT_BUCKETS,
        reservoir: bool = False,
    ) -> Histogram:
        """The histogram called ``name``, created on first request.

        ``buckets``/``reservoir`` only matter on the creating call; later
        callers share the existing instance.
        """
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name,
                buckets=buckets,
                reservoir_size=self._default_reservoir if reservoir else 0,
            )
        return metric

    def set_metrics(self, items) -> None:
        """Bulk-publish ``(name, value)`` pairs as counters (snapshot import)."""
        for name, value in items:
            counter = self.counter(name)
            counter.value = value

    def reset(self) -> None:
        """Zero every registered metric (the instances stay bound)."""
        for group in (self._counters, self._gauges, self._histograms):
            for metric in group.values():
                metric.reset()

    def snapshot(self) -> Dict[str, object]:
        """All metrics as one nested, deterministically ordered dict."""
        metrics: Dict[str, object] = {}
        for name in sorted(self._counters):
            metrics[name] = self._counters[name].value
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            metrics[name] = {
                "value": gauge.value,
                "min": gauge.min,
                "max": gauge.max,
                "updates": gauge.updates,
            }
        histograms = {
            name: self._histograms[name].snapshot()
            for name in sorted(self._histograms)
        }
        return {"metrics": metrics, "histograms": histograms}


# --------------------------------------------------------------- no-op twins
class NullCounter:
    """Shared do-nothing counter (the disabled-mode binding)."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass


class NullGauge:
    """Shared do-nothing gauge."""

    __slots__ = ()
    name = "null"
    value = 0.0
    min = None
    max = None
    updates = 0

    def set(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass


class NullHistogram:
    """Shared do-nothing histogram."""

    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry twin whose factories return the shared no-op singletons."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name, buckets=DEFAULT_BUCKETS, reservoir=False) -> NullHistogram:
        return NULL_HISTOGRAM

    def set_metrics(self, items) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"metrics": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()
