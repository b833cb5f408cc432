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
There is one facade and no no-op copy of it.  :func:`build_obs` returns
the shared :data:`NULL_OBS` -- a real :class:`Obs` switched off
(``enabled`` is false) -- whenever observability is off (``config is
None`` or ``config.enabled`` is false).  Instrumented code binds its
metrics and spans **once at construction time** from whichever facade it
is handed, and gates every probe site on the facade's ``enabled`` flag
(hot paths cache it as ``self._obs_on``).  A disabled run therefore binds
into the shared facade but never writes to it: no sampler events enter
the calendar, every metric of :data:`NULL_OBS` stays at zero (the no-op
identity tests check this), and simulation results are bit-identical to
an uninstrumented build -- the golden-digest suite enforces this.

What loads with the package
---------------------------
The facade, the config, the registry, recorder, spans and naming load
here: every scenario binds them.  :mod:`repro.obs.merge` (folding
snapshots across shards or trials) and :mod:`repro.obs.report` are
import-on-use -- a single run never merges or renders telemetry -- so
import them from their modules.  :mod:`repro.obs.probes` loads with the
first obs-enabled build, the only kind that builds a sampler.
"""

from __future__ import annotations

from typing import Dict, Optional

from .config import ObsConfig
from .naming import CANONICAL_NAMESPACES, canonical_namespace, promote_flat
from .recorder import FlightRecorder
from .registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanTracker


class Obs:
    """Facade owning one run's registry, flight recorder and span tracker.

    ``enabled`` mirrors ``config.enabled``; every probe site is gated on it,
    so a switched-off facade is bound but never written to.
    """

    def __init__(self, config: ObsConfig):
        self.config = config
        self.enabled = config.enabled
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder()
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

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready telemetry snapshot (deterministically ordered)."""
        data = self.registry.snapshot()
        data["spans"] = self.spans.snapshot()
        data["recorder"] = self.recorder.snapshot()
        return data


#: The shared, switched-off facade every disabled run binds.
NULL_OBS = Obs(ObsConfig())


def build_obs(config: Optional[ObsConfig]) -> Obs:
    """The run's ``obs`` binding: a live :class:`Obs`, or :data:`NULL_OBS`.

    Returns the shared switched-off facade unless ``config`` exists and has
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
    "NULL_OBS",
    "Obs",
    "ObsConfig",
    "Span",
    "SpanTracker",
    "build_obs",
    "canonical_namespace",
    "promote_flat",
]
