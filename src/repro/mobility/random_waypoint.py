"""The random-waypoint mobility model.

Each node repeatedly (1) picks a uniformly random destination inside the
area, (2) travels towards it in a straight line at a speed drawn uniformly
from ``[min_speed, max_speed]``, then (3) pauses for a time drawn uniformly
from ``[0, max_pause]`` before picking the next destination.  These are the
exact semantics the paper describes (with ``min_speed = 0`` and
``max_pause = 80 s``).

The implementation is *lazy and analytic*: movement legs are generated on
demand and positions are interpolated, so querying the position at an
arbitrary time costs nothing beyond extending the leg list -- no per-step
movement events are ever scheduled in the simulator.
"""

from __future__ import annotations

import math

from repro.mobility.base import Position, RectangularArea
from repro.mobility.legs import Leg, PiecewiseLinearMobility


class RandomWaypointMobility(PiecewiseLinearMobility):
    """Random-waypoint motion inside a rectangular area.

    Parameters
    ----------
    area:
        The rectangle the node moves within.
    rng:
        Random stream used for waypoints, speeds and pauses.
    min_speed_mps, max_speed_mps:
        Speed interval.  The paper fixes ``min_speed`` to 0 and sweeps
        ``max_speed``; a zero ``max_speed`` degenerates to a static node at
        its initial position.
    max_pause_s:
        Upper bound of the uniform pause time (80 s in the paper).
    initial_position:
        Optional starting point; drawn uniformly at random when omitted.
    """

    def __init__(
        self,
        area: RectangularArea,
        rng,
        *,
        min_speed_mps: float = 0.0,
        max_speed_mps: float = 1.0,
        max_pause_s: float = 80.0,
        initial_position: Position | None = None,
    ):
        if min_speed_mps < 0 or max_speed_mps < 0:
            raise ValueError("speeds must be non-negative")
        if max_speed_mps < min_speed_mps:
            raise ValueError("max_speed_mps must be >= min_speed_mps")
        if max_pause_s < 0:
            raise ValueError("max_pause_s must be non-negative")
        self.area = area
        self.rng = rng
        self.min_speed_mps = float(min_speed_mps)
        self.max_speed_mps = float(max_speed_mps)
        self.max_pause_s = float(max_pause_s)
        start = initial_position if initial_position is not None else area.random_point(rng)
        if not area.contains(start):
            raise ValueError(f"initial position {start} lies outside the area")
        super().__init__(start)

    def _next_leg(self, start_time: float, start: Position) -> Leg:
        if self.max_speed_mps == 0.0:
            # Degenerate case: the node can never move (and draws nothing).
            return Leg(start_time, start, start, math.inf, math.inf)
        destination = self.area.random_point(self.rng)
        speed = self.rng.uniform(self.min_speed_mps, self.max_speed_mps)
        if speed <= 0.0:
            # A zero draw means the node idles through this leg; model it
            # as a pure pause so time still advances.
            travel_time = 0.0
            destination = start
        else:
            distance = (
                (destination[0] - start[0]) ** 2 + (destination[1] - start[1]) ** 2
            ) ** 0.5
            travel_time = distance / speed
        pause = self.rng.uniform(0.0, self.max_pause_s) if self.max_pause_s > 0 else 0.0
        travel_end = start_time + travel_time
        return Leg(start_time, start, destination, travel_end, travel_end + pause)

    @property
    def speed_bound_mps(self) -> float:
        """Travel speeds are drawn from ``[min_speed, max_speed]``."""
        return self.max_speed_mps
