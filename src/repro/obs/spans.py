"""Timed-section profiling: ``obs.span("fanout")``.

A *span* aggregates the wall-clock time spent inside a named section of
code: entering/exiting (or ``start()``/``stop()``) adds one timed interval
to the section's running total.  Aggregates, not traces -- a paper-scale run
enters the hot sections hundreds of thousands of times, so each section
keeps just ``(count, total_s, max_s)`` and the report renders a per-phase
wall-clock breakdown from them.

Spans are reusable and re-entrant-free by design: the object returned by
:meth:`SpanTracker.span` is bound to its aggregate once, so hot paths hold
it in a local/attribute and pay two ``perf_counter()`` calls per section
entry, nothing else.  A disabled run binds its spans from the shared,
switched-off :data:`repro.obs.NULL_OBS` and never enters them: every timed
section sits behind the caller's cached ``obs.enabled`` flag.
"""

from __future__ import annotations

import time
from typing import Dict


class Span:
    """One named timed section (context manager or explicit start/stop)."""

    __slots__ = ("name", "count", "total_s", "max_s", "_started_at")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._started_at = 0.0

    def start(self) -> None:
        self._started_at = time.perf_counter()

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._started_at
        self.count += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    def __enter__(self) -> "Span":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def add(self, elapsed_s: float) -> None:
        """Record one externally-timed interval.

        For sections that cannot bracket themselves with ``start``/``stop``
        -- e.g. a build phase timed before the obs facade existed.
        """
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s


class SpanTracker:
    """Creates and holds the run's spans, keyed by dotted section name."""

    def __init__(self):
        self._spans: Dict[str, Span] = {}

    def span(self, name: str) -> Span:
        """The span called ``name``, created on first request."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = Span(name)
        return span

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-section breakdown: name -> count/total_s/max_s (sorted)."""
        return {
            name: {
                "count": span.count,
                "total_s": span.total_s,
                "max_s": span.max_s,
            }
            for name, span in sorted(self._spans.items())
            if span.count
        }
