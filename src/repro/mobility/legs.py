"""Shared lazy piecewise-linear motion machinery.

Random waypoint, Gauss-Markov steps and Manhattan street segments reduce to
the same shape: an append-only list of *legs*, each a straight-line travel
followed by an optional pause, generated on demand as queries reach further
into the future.  :class:`PiecewiseLinearMobility` implements the lazy
extension, the leg cursor and the :meth:`position` / :meth:`segment` contract
once; subclasses only provide :meth:`_next_leg`.
"""

from __future__ import annotations

import math
from typing import List

from repro.mobility.base import MobilityModel, Position, Segment


class Leg:
    """One segment of motion: straight-line travel then an optional pause."""

    __slots__ = ("start_time", "start", "end", "travel_end_time", "pause_end_time",
                 "velocity")

    def __init__(self, start_time: float, start: Position, end: Position,
                 travel_end_time: float, pause_end_time: float):
        self.start_time = start_time
        self.start = start
        self.end = end
        self.travel_end_time = travel_end_time
        self.pause_end_time = pause_end_time
        duration = travel_end_time - start_time
        #: Constant travel velocity; ``None`` for a leg that never travels
        #: (zero or infinite duration, or no displacement).
        self.velocity = None
        if 0.0 < duration < math.inf and start != end:
            self.velocity = (
                (end[0] - start[0]) / duration, (end[1] - start[1]) / duration
            )

    def position(self, at_time: float) -> Position:
        if at_time >= self.travel_end_time:
            return self.end
        duration = self.travel_end_time - self.start_time
        if duration <= 0:
            return self.end
        fraction = (at_time - self.start_time) / duration
        x = self.start[0] + (self.end[0] - self.start[0]) * fraction
        y = self.start[1] + (self.end[1] - self.start[1]) * fraction
        return (x, y)


class PiecewiseLinearMobility(MobilityModel):
    """Base class for models whose trajectory is a lazy list of legs."""

    def __init__(self, origin: Position):
        self._legs: List[Leg] = []
        self._origin: Position = (float(origin[0]), float(origin[1]))
        #: Index of the leg the last query fell in.  Simulation time is
        #: monotone, so the next query lands in the same leg or the next
        #: one; out-of-order queries walk the cursor back.
        self._cursor = 0

    # ------------------------------------------------------------- extension
    def _next_leg(self, start_time: float, start: Position) -> Leg:
        """Generate the leg beginning at ``start_time`` from ``start``.

        Subclasses draw their randomness here, in generation order, so a
        seed fully determines the trajectory.  A returned leg may cover an
        infinite span (``pause_end_time == inf``) to end generation (static
        degenerate cases).
        """
        raise NotImplementedError

    def _append_leg(self) -> Leg:
        legs = self._legs
        if legs:
            last_end, last_position = legs[-1].pause_end_time, legs[-1].end
        else:
            last_end, last_position = 0.0, self._origin
        leg = self._next_leg(last_end, last_position)
        # Guarantee progress even when both travel and pause are 0.
        if leg.pause_end_time <= leg.start_time:
            leg = Leg(last_end, last_position, leg.end, last_end, last_end + 1e-3)
        legs.append(leg)
        return leg

    def _leg_at(self, at_time: float) -> Leg:
        """The leg whose ``[start_time, pause_end_time)`` holds ``at_time``."""
        if at_time < 0:
            raise ValueError("time must be non-negative")
        legs = self._legs
        index = self._cursor
        leg = legs[index] if legs else self._append_leg()
        while at_time >= leg.pause_end_time:
            index += 1
            leg = legs[index] if index < len(legs) else self._append_leg()
        while at_time < leg.start_time:
            index -= 1
            leg = legs[index]
        self._cursor = index
        return leg

    # -------------------------------------------------------------- interface
    def position(self, at_time: float) -> Position:
        return self._leg_at(at_time).position(at_time)

    def segment(self, at_time: float) -> Segment:
        """Travel at the leg's velocity until it arrives, then its pause."""
        leg = self._leg_at(at_time)
        velocity = leg.velocity
        if velocity is None or at_time >= leg.travel_end_time:
            return (leg.end[0], leg.end[1], 0.0, 0.0, leg.pause_end_time)
        x, y = leg.position(at_time)
        return (x, y, velocity[0], velocity[1], leg.travel_end_time)

    @property
    def legs_generated(self) -> int:
        """Number of legs generated so far (diagnostic)."""
        return len(self._legs)
