"""Reference-point group mobility (RPGM).

Nodes move in *groups*: each group has a logical reference point following
a random-waypoint path through the area, and every member tracks its own
reference point -- its position is the group reference plus a member offset
that itself performs a small random walk inside a ``group_radius_m`` box
around the reference.  This is the classic MANET group model (Hong, Gerla,
Pei & Chiang), and the natural multicast scenario: the members of one
multicast group march together (a convoy, a platoon, a rescue team) while
other groups roam independently.

The offset-walk formulation keeps the motion service honest: a member's
speed is bounded by ``reference speed bound + member_speed_mps`` exactly
(positions are a sum of two bounded-speed paths, and the final clamp onto
the area is a projection, which never increases displacement), and a member
provably holds still whenever both its reference and its offset walk are
pausing.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.mobility.base import MobilityModel, Position, RectangularArea, Segment
from repro.mobility.random_waypoint import RandomWaypointMobility


class RpgmMobility(MobilityModel):
    """One group member: reference-point path plus a bounded offset walk.

    Parameters
    ----------
    area:
        The rectangle the *member* must stay within (positions are clamped
        onto it; the reference itself already roams inside it).
    reference:
        The group's shared reference-point model (typically a
        :class:`RandomWaypointMobility` built by :func:`build_group_reference`).
    rng:
        Random stream of this member's offset walk.
    group_radius_m:
        Half-width of the square box the offset walk roams (the group's
        spatial spread).
    member_speed_mps:
        Maximum speed of the offset walk relative to the reference.  Zero
        freezes the member at a fixed offset (a rigid formation).
    max_pause_s:
        Upper bound of the offset walk's pauses; pauses that overlap the
        reference's pauses give the spatial index real position holds.
    """

    def __init__(
        self,
        area: RectangularArea,
        reference: MobilityModel,
        rng,
        *,
        group_radius_m: float = 25.0,
        member_speed_mps: float = 0.5,
        max_pause_s: float = 0.0,
    ):
        if group_radius_m <= 0:
            raise ValueError("group_radius_m must be positive")
        if member_speed_mps < 0:
            raise ValueError("member_speed_mps must be non-negative")
        self.area = area
        self.reference = reference
        self.group_radius_m = float(group_radius_m)
        self.member_speed_mps = float(member_speed_mps)
        # The offset walk is a random-waypoint path in a (2R)^2 box, shifted
        # by -R so offsets are centred on the reference point.
        self._offset_walk = RandomWaypointMobility(
            RectangularArea(2.0 * group_radius_m, 2.0 * group_radius_m),
            rng,
            min_speed_mps=0.0,
            max_speed_mps=member_speed_mps,
            max_pause_s=max_pause_s,
        )

    def position(self, at_time: float) -> Position:
        x, y, _, _, _ = self.segment(at_time)
        return (x, y)

    def segment(self, at_time: float) -> Segment:
        """Sum of the reference's and the offset walk's segments, clamped.

        The clamp onto the area is the one non-linear piece: per axis the
        segment is cut where the unclamped coordinate reaches (or returns
        from beyond) an area edge, and an axis pinned to an edge has zero
        velocity.
        """
        rx, ry, rvx, rvy, until = self.reference.segment(at_time)
        ox, oy, ovx, ovy, offset_until = self._offset_walk.segment(at_time)
        if offset_until < until:
            until = offset_until
        radius = self.group_radius_m
        x, vx, x_cut = _clamp_axis(rx + ox - radius, rvx + ovx, self.area.width_m)
        y, vy, y_cut = _clamp_axis(ry + oy - radius, rvy + ovy, self.area.height_m)
        return (x, y, vx, vy, min(until, at_time + x_cut, at_time + y_cut))

    @property
    def speed_bound_mps(self):
        """Sum of the reference bound and the offset-walk bound.

        The clamp onto the area is a projection onto a convex set, which is
        1-Lipschitz, so it never increases the bound.  ``None`` when the
        reference's own bound is unknown.
        """
        reference_bound = self.reference.speed_bound_mps
        if reference_bound is None:
            return None
        return reference_bound + self.member_speed_mps


#: How far beyond an edge, in metres, the unclamped coordinate of a pinned
#: axis must still be for its hold to last.  ``u`` at a later instant is
#: re-interpolated from the two underlying legs, not extrapolated from this
#: sample, and the two differ by float error (~1e-14 m): a hold that ran up
#: to the exact crossing could end with the coordinate already a hair inside,
#: breaking the promise that an at-rest position is bit-constant.
_PIN_GUARD_M = 1e-9


def _clamp_axis(u: float, v: float, limit: float) -> Tuple[float, float, float]:
    """One coordinate of ``clamp(u + v*t)`` onto ``[0, limit]`` as a segment.

    Returns ``(clamped u, velocity, seconds the velocity holds)``: a free
    coordinate keeps ``v`` until it reaches the edge it is heading for; one
    pinned to an edge has zero velocity until ``u`` comes within
    :data:`_PIN_GUARD_M` of coming back inside, and promises nothing (zero
    seconds) once it is that close.
    """
    clamped = min(max(u, 0.0), limit)
    if v > 0.0:
        if u < 0.0:
            return clamped, 0.0, max(-u - _PIN_GUARD_M, 0.0) / v
        if u < limit:
            return clamped, v, (limit - u) / v
    elif v < 0.0:
        if u > limit:
            return clamped, 0.0, min(limit - u + _PIN_GUARD_M, 0.0) / v
        if u > 0.0:
            return clamped, v, -u / v
    return clamped, 0.0, math.inf


def build_group_reference(
    area: RectangularArea,
    rng,
    *,
    min_speed_mps: float = 0.0,
    max_speed_mps: float = 1.0,
    max_pause_s: float = 0.0,
) -> RandomWaypointMobility:
    """The shared reference-point path of one RPGM group (random waypoint)."""
    return RandomWaypointMobility(
        area,
        rng,
        min_speed_mps=min_speed_mps,
        max_speed_mps=max_speed_mps,
        max_pause_s=max_pause_s,
    )
