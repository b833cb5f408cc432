"""Spatial indexing for the wireless medium.

The medium's hot path asks one question thousands of times per simulated
second: *which radios lie within a given range of this point, right now?*
The naive answer interpolates every registered node's mobility model and
computes every distance -- O(N) per transmission, O(N^2) per beacon round --
which dominates the wall-clock time of paper-scale sweeps.

This module answers the same question in O(k) for the k nodes near the query
point, without changing a single simulation outcome:

:class:`PositionMemo`
    A per-instant cache of each node's linear motion
    :meth:`~repro.mobility.base.MobilityModel.segment`.  A node's model is
    asked at most once per simulation instant, and not at all while the
    node is at rest (its position is then bit-constant until the segment
    ends).  Scripted teleports (``StaticMobility.move_to``) invalidate
    entries through the mobility position listeners.

:class:`UniformGridIndex`
    A uniform grid with cell size of the order of the transmission range,
    built from exact positions and kept until accumulated drift
    (``speed bound x age``) exceeds a slack budget.  Queries inflate their
    radius by that slack, so the returned candidate set is a guaranteed
    superset of the true in-range set.

    On top of the plain candidate windows, the grid serves the medium one
    **kinetic interference window** per sender through
    :meth:`~UniformGridIndex.transmission_window`: every candidate carries
    its resolved verdict *and the instant that verdict expires*, and the
    call hands out the sender's **frozen interference list** -- the
    enabled member radios within range, never mutated once returned, so a
    flight can keep it for its airtime.
    All motion is piecewise linear, so the instant a sender-receiver
    distance crosses the radio range is a quadratic root, computed once when
    the pair is classified (the kinetic-data-structure idea of Basch,
    Guibas & Hershberger, SODA 1997).  A cached verdict is reused only
    while the pair is provably more than :data:`_GUARD_M` from the range
    boundary on an unchanged linear segment of both nodes; everything
    else is the linear scan's own expression on exact positions.

The O(N) reference with the exact semantics of the original medium -- every
registered radio a candidate, every position interpolated on demand, nothing
cached -- is a test oracle in ``tests/net/reference_medium.py``: the grid is
proven against it (see ``tests/properties/test_medium_equivalence.py``), and
nothing under ``src/`` selects it.

Candidates are always reported in registration order, which is the order the
linear scan iterates radios in -- reception lists, delivery callbacks and
therefore every downstream statistic are bit-identical between the two.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.phy import Phy

Position = Tuple[float, float]
Segment = Tuple[float, float, float, float, float]

#: Guard band around a range boundary, in metres.  Positions extrapolated
#: along a segment differ from the model's own interpolation by float error
#: (~1e-13 m at these coordinates); a moving pair closer than this to a
#: boundary is classified exactly on every call instead of being cached.
_GUARD_M = 1e-6


def crossing_delay(distance_sq: float, closing: float, speed_sq: float,
                   inner_sq: float, outer_sq: float) -> float:
    """Seconds until a pair's squared distance leaves ``(inner_sq, outer_sq)``.

    The pair's offset is ``D`` and its relative velocity ``V``, both
    constant: ``distance_sq = |D|^2``, ``closing = D.V`` (negative while
    approaching), ``speed_sq = |V|^2 > 0``, so the squared distance after
    ``t`` seconds is ``speed_sq*t^2 + 2*closing*t + distance_sq``.  Returns
    0 when the pair is already outside the band and ``inf`` when it never
    leaves; ``inner_sq < 0`` means there is no inner boundary.
    """
    if distance_sq <= inner_sq or distance_sq >= outer_sq:
        return 0.0
    delay = math.inf
    if outer_sq != math.inf:
        delay = (
            math.sqrt(closing * closing + speed_sq * (outer_sq - distance_sq)) - closing
        ) / speed_sq
    if closing < 0.0 and inner_sq >= 0.0:
        reach = closing * closing - speed_sq * (distance_sq - inner_sq)
        if reach >= 0.0:
            delay = min(delay, (-closing - math.sqrt(reach)) / speed_sq)
    return delay


class PositionMemo:
    """Per-instant cache of every tracked node's motion segment.

    An entry answers any query at the instant it was computed, and -- for
    a node at rest -- any later instant before the segment ends.  A moving
    node is re-sampled on every new instant: the model's own interpolation
    is the only source of positions, so they stay bit-equal to
    ``mobility.position(now)``.
    """

    def __init__(self) -> None:
        #: node_id -> (segment, computed_at, reusable_until).
        self._entries: Dict[int, Tuple[Segment, float, float]] = {}
        self._samplers: Dict[int, Callable[[float], Segment]] = {}

    def track(self, phy: "Phy") -> None:
        """Start caching ``phy``'s node.

        Nodes without a mobility model offering ``segment`` (ad-hoc test
        stubs) are read through ``phy.position`` and promised nothing.
        """
        sampler = getattr(getattr(phy.node, "mobility", None), "segment", None)
        if sampler is None:
            position = phy.position

            def sampler(now: float) -> Segment:
                x, y = position(now)
                return (x, y, 0.0, 0.0, now)

        self._samplers[phy.node_id] = sampler

    def segment(self, node_id: int, now: float) -> Segment:
        """The node's ``(x, y, vx, vy, until)`` segment, exact at ``now``."""
        entry = self._entries.get(node_id)
        if entry is not None and (entry[1] == now or entry[1] <= now < entry[2]):
            return entry[0]
        segment = self._samplers[node_id](now)
        at_rest = segment[2] == 0.0 and segment[3] == 0.0
        self._entries[node_id] = (segment, now, segment[4] if at_rest else now)
        return segment

    def exact(self, node_id: int, now: float) -> Position:
        """The true position at ``now``."""
        segment = self.segment(node_id, now)
        return (segment[0], segment[1])

    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Drop one node's entry (or all of them after a bulk change)."""
        if node_id is None:
            self._entries.clear()
        else:
            self._entries.pop(node_id, None)


class _KineticWindow:
    """One sender's candidate members with a verdict and a deadline each."""

    __slots__ = ("members", "verdicts", "deadlines", "expires", "valid_until",
                 "frozen")

    def __init__(self, members: List[Tuple[int, int, "Phy"]], expires: float):
        #: Candidate ``(order, node_id, phy)`` triples, never the sender.
        self.members = members
        #: Per member: within range.
        self.verdicts = [False] * len(members)
        #: Instant each member's verdict stops being provably current.
        self.deadlines = [-math.inf] * len(members)
        #: Instant the candidate set itself stops being a superset.
        self.expires = expires
        #: min(deadlines, expires): before it, the verdicts are the answer.
        self.valid_until = -math.inf
        #: The interference list handed to flights, or ``None`` when a
        #: verdict or a radio's power state changed since it was built.
        #: Never mutated: a stale list is dropped and a new one built.
        self.frozen: Optional[List["Phy"]] = None

    def freeze(self) -> List["Phy"]:
        """Build (and keep) the list of enabled members within range."""
        self.frozen = frozen = [
            member[2]
            for member, verdict in zip(self.members, self.verdicts)
            if verdict and member[2].enabled
        ]
        return frozen


class UniformGridIndex:
    """Uniform-grid candidate index with per-sender kinetic windows.

    The grid buckets nodes by ``cell_m``-sized cells from their exact
    positions at build time; it is rebuilt once accumulated motion (the
    fleet speed bound times the grid's age) exceeds ``slack_m`` -- or on
    every new timestamp when any node's speed is unbounded.  Queries inflate
    their radius by the slack, so candidate sets are supersets of the truth.
    Query instants must not decrease from one call to the next.
    """

    def __init__(self, cell_m: float, slack_m: float, membership=None):
        if cell_m <= 0:
            raise ValueError("cell_m must be positive")
        if slack_m < 0:
            raise ValueError("slack_m must be non-negative")
        self.cell_m = cell_m
        self.slack_m = slack_m
        #: Optional membership predicate: radios it rejects are never
        #: tracked or bucketed (the sharded engine's halo filter -- a
        #: parallel worker indexes only its owned + halo radios, so grid
        #: size scales with the region, not the fleet).  ``None`` admits
        #: every radio.
        self.membership = membership
        self._inv_cell = 1.0 / cell_m
        self.memo = PositionMemo()
        #: (registration order, node id, phy) triples.
        self._members: List[Tuple[int, int, "Phy"]] = []
        self._cells: Dict[Tuple[int, int], List[Tuple[int, int, "Phy"]]] = {}
        #: (origin cell, radius) -> concatenated buckets of the cells a query
        #: from anywhere in that origin cell can reach; valid until rebuild.
        self._window_cache: Dict[Tuple[int, int, float], List[Tuple[int, int, "Phy"]]] = {}
        #: sender id -> its kinetic window.  Windows outlive grid rebuilds;
        #: only a membership change or a teleport flushes them.
        self._windows: Dict[int, _KineticWindow] = {}
        #: The range the windows are resolved for, and per verdict the
        #: guarded squared-distance band inside which that verdict provably
        #: holds.
        self._range: Optional[float] = None
        self._bands: Dict[bool, Tuple[float, float]] = {}
        self._built_at: Optional[float] = None
        self._dirty = True
        #: Max speed bound over every tracked node; ``None`` once any node's
        #: bound is unknown (degrades to rebuild-per-timestamp).
        self._speed_bound: Optional[float] = 0.0
        #: Diagnostic counters behind the canonical ``spatial.index.*``
        #: telemetry names: full grid rebuilds, window calls answered
        #: without resolving a pair, candidate sets built, and pairs
        #: (re-)resolved.  Plain ints on the hot path; the obs layer reads
        #: them once per snapshot.
        self.grid_rebuilds = 0
        self.window_hits = 0
        self.window_builds = 0
        self.window_resolves = 0

    # --------------------------------------------------------------- members
    def add(self, phy: "Phy") -> None:
        """Track a radio; the grid is rebuilt lazily on the next query.

        Radios rejected by the membership predicate are ignored entirely:
        they are never memoised, bucketed or enumerated, so every query
        (and every rebuild) pays only for admitted members.  Registration
        order among admitted members is preserved -- the bit-identity
        contract of the window enumeration.
        """
        if self.membership is not None and not self.membership(phy):
            return
        self.memo.track(phy)
        self._members.append((len(self._members), phy.node_id, phy))
        rate = getattr(getattr(phy.node, "mobility", None), "speed_bound_mps", None)
        if rate is None or self._speed_bound is None:
            self._speed_bound = None
        else:
            self._speed_bound = max(self._speed_bound, rate)
        self._dirty = True
        self._windows.clear()

    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Invalidate cached positions, grid and windows after a teleport."""
        self.memo.invalidate(node_id)
        self._dirty = True
        self._windows.clear()

    def power_changed(self) -> None:
        """A radio went down or came up: every frozen list may be stale.

        Verdicts and deadlines are facts about geometry and stay; only the
        lists go, to be rebuilt on each sender's next transmission.
        """
        for window in self._windows.values():
            window.frozen = None

    def members(self) -> List[Tuple[int, int, "Phy"]]:
        """Every registered radio as ``(order, node_id, phy)`` triples."""
        return self._members

    # --------------------------------------------------------------- queries
    def exact(self, phy: "Phy", now: float) -> Position:
        return self.memo.exact(phy.node_id, now)

    def _grid_age_drift(self, now: float) -> Optional[float]:
        """Worst-case motion since the grid was built; ``None`` = rebuild."""
        if self._dirty or self._built_at is None:
            return None
        if now == self._built_at:
            return 0.0
        bound = self._speed_bound
        if bound is None:
            return None  # unknown speeds: the grid is only valid at build time
        drift = bound * (now - self._built_at)
        if drift > self.slack_m:
            return None
        return drift

    def _cell_key(self, x: float, y: float) -> Tuple[int, int]:
        """Grid cell containing ``(x, y)``."""
        inv_cell = self._inv_cell
        return (math.floor(x * inv_cell), math.floor(y * inv_cell))

    def _rebuild(self, now: float) -> None:
        cells: Dict[Tuple[int, int], List[Tuple[int, int, "Phy"]]] = {}
        segment = self.memo.segment
        cell_key = self._cell_key
        for member in self._members:
            x, y, _, _, _ = segment(member[1], now)
            key = cell_key(x, y)
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [member]
            else:
                bucket.append(member)
        self._cells = cells
        self._window_cache.clear()
        self._built_at = now
        self._dirty = False
        self.grid_rebuilds += 1

    def _ensure_current(self, now: float) -> None:
        """Rebuild the grid if its accumulated drift exceeds the slack."""
        if self._grid_age_drift(now) is None:
            self._rebuild(now)

    def _window(self, cx: int, cy: int, radius: float) -> List[Tuple[int, int, "Phy"]]:
        """Members reachable within ``radius`` from anywhere in cell (cx, cy).

        The reach is inflated by the slack budget (up to ``slack_m`` of
        fleet motion before the next rebuild), so the cached window stays a
        valid superset for any query instant of the current grid epoch.
        Cached per (cell, radius) until the next rebuild -- senders in the
        same cell share one bucket concatenation.
        """
        key = (cx, cy, radius)
        cached = self._window_cache.get(key)
        if cached is not None:
            return cached
        cell_m = self.cell_m
        inv_cell = self._inv_cell
        reach = radius + self.slack_m
        x0 = cx * cell_m
        x1 = x0 + cell_m
        y0 = cy * cell_m
        y1 = y0 + cell_m
        gx_lo = math.floor((x0 - reach) * inv_cell)
        gx_hi = math.floor((x1 + reach) * inv_cell)
        gy_lo = math.floor((y0 - reach) * inv_cell)
        gy_hi = math.floor((y1 + reach) * inv_cell)
        reach_sq = reach * reach
        cells = self._cells
        out: List[Tuple[int, int, "Phy"]] = []
        for gx in range(gx_lo, gx_hi + 1):
            gx0 = gx * cell_m
            if gx0 > x1:
                dx = gx0 - x1
            elif gx0 + cell_m < x0:
                dx = x0 - gx0 - cell_m
            else:
                dx = 0.0
            dx_sq = dx * dx
            for gy in range(gy_lo, gy_hi + 1):
                bucket = cells.get((gx, gy))
                if not bucket:
                    continue
                gy0 = gy * cell_m
                if gy0 > y1:
                    dy = gy0 - y1
                elif gy0 + cell_m < y0:
                    dy = y0 - gy0 - cell_m
                else:
                    dy = 0.0
                # Skip cells entirely beyond reach of the origin cell.
                if dx_sq + dy * dy > reach_sq:
                    continue
                out.extend(bucket)
        # Sort once here so every query that filters the window inherits
        # registration order without re-sorting.
        out.sort()
        self._window_cache[key] = out
        return out

    def candidates(
        self, origin: Position, radius: float, now: float
    ) -> List[Tuple[int, int, "Phy"]]:
        """Every radio possibly within ``radius`` of ``origin`` at ``now``.

        Returned in registration order as ``(order, node_id, phy)`` triples;
        a guaranteed superset of the true in-range set (callers classify each
        candidate exactly).
        """
        self._ensure_current(now)
        inv_cell = self._inv_cell
        return self._window(
            math.floor(origin[0] * inv_cell), math.floor(origin[1] * inv_cell), radius
        )

    # ------------------------------------------------------ kinetic windows
    def _set_range(self, range_m: float) -> None:
        """Bind the windows to one range (flushing any other)."""
        self._windows.clear()
        self._range = range_m
        lo = max(range_m - _GUARD_M, 0.0)
        hi = range_m + _GUARD_M
        self._bands = {True: (-1.0, lo * lo), False: (hi * hi, math.inf)}

    def _build_window(self, sender: "Phy", origin: Position, range_m: float,
                      now: float, previous: Optional[_KineticWindow]) -> _KineticWindow:
        """A fresh candidate window around ``origin``.

        The candidates reach one grid cell beyond the range, so the set
        stays a superset until sender and member together may have closed
        that margin: half of it each at the fleet speed bound.  Members
        already in the sender's ``previous`` window keep their verdict and
        deadline (a deadline is a fact about the pair, not about the set);
        the rest start unresolved.
        """
        self._ensure_current(now)
        margin = self.cell_m
        cx, cy = self._cell_key(origin[0], origin[1])
        members = [
            member for member in self._window(cx, cy, range_m + margin)
            if member[2] is not sender
        ]
        bound = self._speed_bound
        if bound is None:
            expires = now
        elif bound == 0.0:
            expires = math.inf
        else:
            expires = now + margin / (2.0 * bound)
        self.window_builds += 1
        window = _KineticWindow(members, expires)
        if previous is not None:
            known = {member[1]: slot for slot, member in enumerate(previous.members)}
            for slot, member in enumerate(members):
                old = known.get(member[1])
                if old is not None:
                    window.verdicts[slot] = previous.verdicts[old]
                    window.deadlines[slot] = previous.deadlines[old]
        return window

    def transmission_window(
        self, sender: "Phy", range_m: float, now: float,
    ) -> List["Phy"]:
        """The frozen interference list of a transmission from ``sender`` at
        ``now``.

        Returns radios in registration order: exactly the enabled radios
        within ``range_m``, never the sender.
        The list is **frozen** -- the index never mutates a list it has
        returned, it drops it (see :attr:`_KineticWindow.frozen`) -- so the
        caller may keep it for the flight's airtime, and successive calls
        return the same object for as long as nothing changed.

        Each member's verdict is the linear scan's expression on exact
        positions, cached until the earliest instant at which the pair --
        both nodes extrapolated along their current segments -- comes
        within :data:`_GUARD_M` of the range boundary or either segment
        ends.  A call before every such deadline resolves nothing and
        samples no position, not even the sender's; any other call samples
        the sender and re-resolves exactly the members that are due.
        """
        if range_m != self._range:
            self._set_range(range_m)
        sender_id = sender.node_id
        window = self._windows.get(sender_id)
        if window is not None and now < window.valid_until:
            self.window_hits += 1
            frozen = window.frozen
            return frozen if frozen is not None else window.freeze()
        segment = self.memo.segment
        ox, oy, svx, svy, sender_until = segment(sender_id, now)
        if window is None or now >= window.expires:
            window = self._windows[sender_id] = self._build_window(
                sender, (ox, oy), range_m, now, window
            )
        sender_moving = svx != 0.0 or svy != 0.0
        bands = self._bands
        range_sq = range_m * range_m
        members = window.members
        verdicts = window.verdicts
        deadlines = window.deadlines
        valid_until = window.expires
        resolves = 0
        for slot, deadline in enumerate(deadlines):
            if deadline <= now:
                resolves += 1
                mx, my, mvx, mvy, until = segment(members[slot][1], now)
                if sender_until < until:
                    until = sender_until
                dx = mx - ox
                dy = my - oy
                distance_sq = dx * dx + dy * dy
                verdict = distance_sq <= range_sq
                if verdicts[slot] is not verdict:
                    verdicts[slot] = verdict
                    window.frozen = None
                inner_sq, outer_sq = bands[verdict]
                dvx = mvx - svx
                dvy = mvy - svy
                speed_sq = dvx * dvx + dvy * dvy
                if speed_sq == 0.0:
                    # Both at rest: positions are bit-constant.  Co-moving:
                    # the offset is constant only up to float error.
                    if (sender_moving or mvx != 0.0 or mvy != 0.0) and (
                        distance_sq <= inner_sq or distance_sq >= outer_sq
                    ):
                        until = now
                else:
                    until = min(until, now + crossing_delay(
                        distance_sq, dx * dvx + dy * dvy, speed_sq, inner_sq, outer_sq
                    ))
                deadlines[slot] = deadline = until
            if deadline < valid_until:
                valid_until = deadline
        window.valid_until = valid_until
        self.window_resolves += resolves
        frozen = window.frozen
        return frozen if frozen is not None else window.freeze()

    def interferers(
        self, sender: "Phy", range_m: float, now: float,
    ) -> List[Tuple[int, int, "Phy"]]:
        """Interference set of a transmission starting at ``now``.

        Returns ``(order, node_id, phy)`` for every radio other than
        ``sender`` within ``range_m`` of the sender's position at ``now``
        that is *enabled at call time*, in registration order -- exactly
        what the linear-scan oracle computes by brute force.  The view for
        tests and tools, derived from the window's members and verdicts;
        the medium consumes :meth:`transmission_window`'s frozen list.
        """
        self.transmission_window(sender, range_m, now)
        window = self._windows[sender.node_id]
        return [
            member
            for member, verdict in zip(window.members, window.verdicts)
            if verdict and member[2].enabled
        ]


def region_census(index, classify, now: float) -> Dict[int, int]:
    """Count the index's enabled radios per spatial region at ``now``.

    ``classify`` maps an exact position to a region id -- typically
    ``repro.sim.shard.ShardPlan.shard_of``.  Used by the sharded engine's
    run statistics to report how the fleet was actually distributed over the
    shard regions at a given instant (nodes roam freely, so this drifts from
    the home-shard assignment over a run).
    """
    census: Dict[int, int] = {}
    for _, _, phy in index.members():
        if not phy.enabled:
            continue
        x, y = index.exact(phy, now)
        region = classify(x, y)
        census[region] = census.get(region, 0) + 1
    return census
