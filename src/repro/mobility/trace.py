"""Replay mobility from an explicit waypoint trace.

Useful for scripting deterministic topology changes in tests (for example
"node C walks out of range at t=30 s") and for replaying externally generated
mobility traces.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.mobility.base import MobilityModel, Position, Segment

Waypoint = Tuple[float, float, float]  # (time, x, y)


class WaypointTraceMobility(MobilityModel):
    """Piecewise-linear motion through a list of timed waypoints.

    The node stays at the first waypoint before its time, interpolates
    linearly between consecutive waypoints, and stays at the last waypoint
    afterwards.

    >>> trace = WaypointTraceMobility([(0, 0, 0), (10, 100, 0)])
    >>> trace.position(5.0)
    (50.0, 0.0)
    """

    def __init__(self, waypoints: Iterable[Sequence[float]]):
        points: List[Waypoint] = [(float(t), float(x), float(y)) for t, x, y in waypoints]
        if not points:
            raise ValueError("at least one waypoint is required")
        for earlier, later in zip(points, points[1:]):
            if later[0] < earlier[0]:
                raise ValueError("waypoints must be sorted by non-decreasing time")
        self._waypoints = points
        self._speed_bound = self._compute_speed_bound(points)

    @staticmethod
    def _compute_speed_bound(points: List[Waypoint]) -> Optional[float]:
        """Max segment speed, or ``None`` when a zero-span segment jumps."""
        bound = 0.0
        for earlier, later in zip(points, points[1:]):
            span = later[0] - earlier[0]
            distance = math.hypot(later[1] - earlier[1], later[2] - earlier[2])
            if span <= 0:
                if distance > 0:
                    return None  # instantaneous jump: speed is unbounded
                continue
            bound = max(bound, distance / span)
        return bound

    def position(self, at_time: float) -> Position:
        x, y, _, _, _ = self.segment(at_time)
        return (x, y)

    def segment(self, at_time: float) -> Segment:
        """The span between two waypoints; flat spans and both ends rest.

        A span ends at its later waypoint, so a query exactly on an interior
        waypoint -- where a zero-span jump may follow -- gets a zero-length
        segment.
        """
        points = self._waypoints
        if at_time <= points[0][0]:
            return (points[0][1], points[0][2], 0.0, 0.0, points[0][0])
        if at_time >= points[-1][0]:
            return (points[-1][1], points[-1][2], 0.0, 0.0, math.inf)
        for earlier, later in zip(points, points[1:]):
            if earlier[0] <= at_time <= later[0]:
                span = later[0] - earlier[0]
                if span == 0:
                    return (later[1], later[2], 0.0, 0.0, at_time)
                fraction = (at_time - earlier[0]) / span
                x = earlier[1] + (later[1] - earlier[1]) * fraction
                y = earlier[2] + (later[2] - earlier[2]) * fraction
                return (
                    x, y,
                    (later[1] - earlier[1]) / span, (later[2] - earlier[2]) / span,
                    later[0],
                )
        raise AssertionError("unreachable: the boundary checks cover every time")

    @property
    def speed_bound_mps(self) -> Optional[float]:
        """Max segment speed; ``None`` when the trace contains a jump."""
        return self._speed_bound

    @property
    def waypoints(self) -> List[Waypoint]:
        """The waypoint list (time, x, y)."""
        return list(self._waypoints)
