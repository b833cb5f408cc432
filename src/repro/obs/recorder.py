"""The flight recorder: a bounded ring buffer of structured events.

The recorder answers "*what was the system doing just before X?*" without
the cost of full tracing: probes append schema'd dicts (never formatted
strings) to a ``deque(maxlen=capacity)``; once full, the oldest events are
overwritten, so memory stays bounded no matter how long the run.  The ring
dumps to JSONL on demand (:meth:`FlightRecorder.dump_jsonl`) and the
scenario layer dumps it automatically when a run raises (see
``ObsConfig.dump_on_error_path``).  Rings of several shards are combined
from their events and snapshots (:func:`repro.obs.merge.interleave_events`,
:func:`repro.obs.merge.merge_snapshots`), never recorder to recorder.

Event schema: every event carries ``t`` (simulation time) and ``kind`` (a
dotted ``layer.event`` tag, e.g. ``"engine.sample"`` or
``"membership.join"``); all other fields are kind-specific and must be
JSON-serialisable.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional


class FlightRecorder:
    """Bounded ring buffer of structured ``{"t": ..., "kind": ...}`` events."""

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("capacity must not be negative")
        self.capacity = capacity
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        #: Events recorded in total (≥ ``len(self)`` once the ring wrapped).
        self.recorded = 0

    def record(self, kind: str, t: float, **fields: object) -> None:
        """Append one structured event (evicting the oldest when full)."""
        event: Dict[str, object] = {"t": t, "kind": kind}
        event.update(fields)
        self._ring.append(event)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Events overwritten by ring wraparound."""
        return self.recorded - len(self._ring)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Retained events, oldest first, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event["kind"] == kind]

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0

    def dump_jsonl(self, path) -> int:
        """Write the retained events to ``path`` (JSONL); returns the count."""
        events = list(self._ring)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        return len(events)

    def snapshot(self) -> Dict[str, int]:
        """Occupancy summary carried in the telemetry snapshot."""
        return {
            "capacity": self.capacity,
            "retained": len(self._ring),
            "recorded": self.recorded,
            "dropped": self.dropped,
        }


class NullFlightRecorder:
    """Shared do-nothing recorder (the disabled-mode binding)."""

    __slots__ = ()
    capacity = 0
    recorded = 0
    dropped = 0

    def record(self, kind: str, t: float, **fields: object) -> None:
        pass

    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def dump_jsonl(self, path) -> int:
        return 0

    def snapshot(self) -> Dict[str, int]:
        return {}


NULL_RECORDER = NullFlightRecorder()
