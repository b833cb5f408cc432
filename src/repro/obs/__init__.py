"""``repro.obs``: the zero-overhead observability layer.

The subsystem bundles four pieces behind one facade (:class:`Obs`):

* a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges and
  histograms named by the repo-wide ``layer.subsystem.name`` scheme
  (:mod:`repro.obs.naming`);
* a :class:`~repro.obs.recorder.FlightRecorder` ring buffer of structured
  events, dumpable to JSONL on error or on demand;
* a :class:`~repro.obs.spans.SpanTracker` aggregating wall-clock time spent
  in named hot sections (``obs.span("medium.fanout")``);
* the :class:`~repro.obs.probes.EngineSampler`, a periodic calendar event
  sampling engine throughput and calendar health (enabled mode only).

Zero-overhead contract
----------------------
:func:`build_obs` returns the shared :data:`NULL_OBS` singleton whenever
observability is off (``config is None`` or ``config.enabled`` is false).
Every component has a no-op twin with an identical interface, so
instrumented code binds its metrics **once at construction time** and
guards hot probe sites with one cached boolean (``self._obs_on``).  With
obs disabled nothing is allocated, no sampler events enter the calendar,
and simulation results are bit-identical to an uninstrumented build --
the golden-digest suite enforces this.
"""

from __future__ import annotations

from typing import Dict, Optional

from .config import ObsConfig
from .merge import (
    interleave_events,
    merge_snapshots,
    merge_telemetry,
    merge_top_fanout,
)
from .naming import CANONICAL_NAMESPACES, canonical_namespace, promote_flat, promote_stats
from .recorder import NULL_RECORDER, FlightRecorder, NullFlightRecorder
from .registry import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
    NullRegistry,
)
from .spans import NULL_SPAN, NULL_SPAN_TRACKER, NullSpan, NullSpanTracker, Span, SpanTracker


class Obs:
    """Facade owning one run's registry, flight recorder and span tracker."""

    enabled = True

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig(enabled=True)
        self.registry = MetricsRegistry(reservoir_size=self.config.reservoir_size)
        self.recorder = FlightRecorder(capacity=self.config.flight_recorder_capacity)
        self.spans = SpanTracker()

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name, buckets=DEFAULT_BUCKETS, reservoir=False) -> Histogram:
        return self.registry.histogram(name, buckets=buckets, reservoir=reservoir)

    def span(self, name: str) -> Span:
        return self.spans.span(name)

    def record(self, kind: str, t: float, **fields: object) -> None:
        """Append one structured event to the flight recorder."""
        self.recorder.record(kind, t, **fields)

    def dump_recorder(self, path) -> int:
        """Dump the flight-recorder ring to ``path`` (JSONL); returns count."""
        return self.recorder.dump_jsonl(path)

    def reset(self) -> None:
        self.registry.reset()
        self.recorder.clear()
        self.spans.reset()

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready telemetry snapshot (deterministically ordered)."""
        data = self.registry.snapshot()
        data["spans"] = self.spans.snapshot()
        data["recorder"] = self.recorder.snapshot()
        return data


class _NullObs:
    """Shared do-nothing facade: the disabled-mode ``obs`` binding."""

    __slots__ = ()
    enabled = False
    config = None
    registry = NULL_REGISTRY
    recorder = NULL_RECORDER
    spans = NULL_SPAN_TRACKER

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name, buckets=DEFAULT_BUCKETS, reservoir=False) -> NullHistogram:
        return NULL_HISTOGRAM

    def span(self, name: str) -> NullSpan:
        return NULL_SPAN

    def record(self, kind: str, t: float, **fields: object) -> None:
        pass

    def dump_recorder(self, path) -> int:
        return 0

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_OBS = _NullObs()


def build_obs(config: Optional[ObsConfig]):
    """The run's ``obs`` binding: a live :class:`Obs`, or :data:`NULL_OBS`.

    Returns the shared no-op singleton unless ``config`` exists and has
    ``enabled=True`` -- callers never need to branch on the config again.
    """
    if config is None or not config.enabled:
        return NULL_OBS
    return Obs(config)


__all__ = [
    "CANONICAL_NAMESPACES",
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_OBS",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_SPAN_TRACKER",
    "NullCounter",
    "NullFlightRecorder",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "NullSpan",
    "NullSpanTracker",
    "Obs",
    "ObsConfig",
    "Span",
    "SpanTracker",
    "build_obs",
    "canonical_namespace",
    "interleave_events",
    "merge_snapshots",
    "merge_telemetry",
    "merge_top_fanout",
    "promote_flat",
    "promote_stats",
]
