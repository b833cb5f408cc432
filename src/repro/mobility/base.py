"""Mobility model interface and helpers.

Beyond plain position interpolation, every model exposes the *motion
service* contract consumed by the spatial index and the medium:

* :meth:`MobilityModel.segment` -- the node's current **linear segment**:
  its exact position plus the constant velocity it keeps until a stated
  instant.  Every model here is piecewise linear, so the instant at which
  two nodes' distance crosses a radio range is a quadratic root the spatial
  index computes exactly, once, instead of bounding what might have
  happened since a verdict was cached;
* :meth:`MobilityModel.position_hold` -- the at-rest view of the segment:
  position plus how long it provably stays constant;
* :meth:`MobilityModel.speed_bound_mps` -- a static bound on the node's
  speed, which paces grid rebuilds and candidate-set expiry.

Teleports (``StaticMobility.move_to``) are the one discontinuity; they are
reported through :meth:`MobilityModel.add_position_listener`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

Position = Tuple[float, float]

#: ``(x, y, vx, vy, until)``: see :meth:`MobilityModel.segment`.
Segment = Tuple[float, float, float, float, float]


@dataclass(frozen=True)
class RectangularArea:
    """The rectangular simulation area nodes move within.

    The paper uses a 200 m x 200 m square.
    """

    width_m: float = 200.0
    height_m: float = 200.0

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("area dimensions must be positive")

    def contains(self, position: Position) -> bool:
        """True when ``position`` lies inside (or on the border of) the area."""
        x, y = position
        return 0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m

    def random_point(self, rng) -> Position:
        """Draw a uniformly random point inside the area."""
        return (rng.uniform(0.0, self.width_m), rng.uniform(0.0, self.height_m))


class MobilityModel(abc.ABC):
    """Provides a node's position as a function of simulation time."""

    @abc.abstractmethod
    def position(self, at_time: float) -> Position:
        """Return the ``(x, y)`` position in metres at ``at_time`` seconds."""

    def segment(self, at_time: float) -> Segment:
        """The linear segment the node is on at ``at_time``.

        Returns ``(x, y, vx, vy, until)``: the position at ``at_time`` --
        computed by the *same expression* :meth:`position` uses, so the two
        are bit-equal -- and the constant velocity in m/s the node keeps for
        every ``t`` in ``[at_time, until)``.  A pause is
        ``(x, y, 0.0, 0.0, pause_end)``.  ``until == at_time`` promises
        nothing: consumers then re-sample on every use.  Asking for a
        segment never draws randomness out of generation order.

        The default -- for a model overriding only :meth:`position` -- is
        that zero-length segment: always correct, never cached.
        """
        x, y = self.position(at_time)
        return (x, y, 0.0, 0.0, at_time)

    def position_hold(self, at_time: float) -> Tuple[Position, float]:
        """Position at ``at_time`` plus how long it provably stays there.

        Returns ``(position, hold_until)`` where the position is guaranteed
        not to change for any time in ``[at_time, hold_until)``: the node's
        :meth:`segment` when it is at rest, no hold at all
        (``hold_until == at_time``) while it travels.
        """
        x, y, vx, vy, until = self.segment(at_time)
        return (x, y), (at_time if vx or vy else until)

    @property
    def speed_bound_mps(self) -> Optional[float]:
        """Upper bound on the node's speed in m/s, or ``None`` when unknown.

        Spatial indexes combine the bound with a position's age to obtain a
        conservative distance interval without re-interpolating; ``None``
        disables that caching for the node.  The bound must also cover
        discontinuous jumps, so models that can teleport (``move_to``) must
        report those through :meth:`add_position_listener` instead.
        """
        return None

    def add_position_listener(self, listener: Callable[[], None]) -> None:
        """Subscribe to discontinuous position changes (teleports).

        Analytic motion needs no notifications; only scripted models that
        can jump (e.g. :class:`~repro.mobility.static.StaticMobility.move_to`)
        fire the listeners, letting spatial caches invalidate stale entries.
        """
        listeners = getattr(self, "_position_listeners", None)
        if listeners is None:
            listeners = []
            self._position_listeners = listeners
        listeners.append(listener)

    def _position_changed(self) -> None:
        """Notify subscribers that the position jumped discontinuously."""
        for listener in getattr(self, "_position_listeners", ()):
            listener()
