"""Reference media: the oracles the one production medium is proven against.

``repro.net.medium.Medium`` is a single implementation -- one reception
record per radio over a uniform grid with kinetic windows.  The two plainer
designs it replaced live on here, test-only, as what they always were:
references that are obviously right rather than fast.

:class:`LinearScanIndex` / :class:`LinearScanMedium`
    The O(N) spatial index -- every radio a candidate, every position
    interpolated on demand, nothing cached -- and a medium running on it.

:class:`PerCopyMedium`
    One record per in-flight *copy* of a frame, kept in per-receiver lists:
    the bookkeeping the per-radio record is a compression of.  It reuses the
    production ``_dispatch``, ``stats`` and spatial index and overrides only
    where copies are created, corrupted and resolved.  It carries no free
    lists, intrusive slots or obs probes, and it does not run the parallel
    shard modes (it has no cross-shard attach).

:func:`scenario_medium`
    Makes ``Scenario.build`` construct one of the above.

Each oracle is proven against the production medium (statistics, delivery
sequence, event count -- ``tests/properties/test_medium_equivalence.py``,
``test_hotpath_equivalence.py``, ``tests/net/test_reception_batch.py``,
``tests/net/test_medium.py``).  The combination *per-copy records on the linear scan* is
not run: two oracles are never compared with each other, only each with the
medium that ships.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import repro.workload.scenario as scenario_module
from repro.net.medium import Medium
from repro.net.packet import Frame
from repro.net.phy import Phy

Position = Tuple[float, float]


class LinearScanIndex:
    """The O(N) reference: every radio is a candidate, nothing is cached.

    This is the original medium semantics laid bare: every registered
    radio's position is interpolated on demand and every distance is
    computed, O(N) per query.  The grid index is proven equivalent against
    it.
    """

    #: Telemetry counters, kept for a uniform ``spatial.index.*`` read path;
    #: the linear scan neither caches nor rebuilds, so they stay zero.
    grid_rebuilds = 0
    window_hits = 0
    window_builds = 0
    window_resolves = 0

    def __init__(self, membership=None):
        self._members: List[Tuple[int, int, "Phy"]] = []
        #: See :attr:`UniformGridIndex.membership` -- same halo-filter hook.
        self.membership = membership

    def add(self, phy: "Phy") -> None:
        if self.membership is not None and not self.membership(phy):
            return
        self._members.append((len(self._members), phy.node_id, phy))

    def members(self) -> List[Tuple[int, int, "Phy"]]:
        """Every registered radio as ``(order, node_id, phy)`` triples."""
        return self._members

    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Nothing is cached, so there is nothing to invalidate."""

    def power_changed(self) -> None:
        """Nothing is cached: every scan reads ``enabled`` afresh."""

    def exact(self, phy: "Phy", now: float) -> Position:
        return phy.position(now)

    def candidates(
        self, origin: Position, radius: float, now: float
    ) -> List[Tuple[int, int, "Phy"]]:
        return self._members

    def transmission_window(
        self, sender: "Phy", range_m: float, now: float,
    ) -> List["Phy"]:
        """The interference list, by exhaustive scan: a fresh list per call
        (flights keep theirs, so two overlapping flights must not share one)."""
        return [phy for _, _, phy in self.interferers(sender, range_m, now)]

    def interferers(
        self, sender: "Phy", range_m: float, now: float,
    ) -> List[Tuple[int, int, "Phy"]]:
        """Interference set around the sender's position at ``now``, by
        exhaustive scan."""
        ox, oy = sender.position(now)
        range_sq = range_m * range_m
        out = []
        for order, node_id, phy in self._members:
            if phy is sender or not phy.enabled:
                continue
            position = phy.position(now)
            dx = position[0] - ox
            dy = position[1] - oy
            if dx * dx + dy * dy <= range_sq:
                out.append((order, node_id, phy))
        return out


class LinearScanMedium(Medium):
    """The production medium on the linear-scan index."""

    def __init__(self, sim, config=None, obs=None, index_membership=None):
        super().__init__(sim, config, obs, index_membership)
        # No radio has registered yet, so the grid built above is empty.
        self._index = LinearScanIndex(membership=index_membership)


class _Flight:
    """One transmission on the air and the copies it fans out to."""

    __slots__ = ("sender", "frame", "end_time", "sender_pos", "copies")

    def __init__(self, sender: Phy, frame: Frame, end_time: float, sender_pos: tuple):
        self.sender = sender
        self.frame = frame
        self.end_time = end_time
        self.sender_pos = sender_pos
        self.copies: List[_Copy] = []


class _Copy:
    """An in-flight copy of a frame heading for one receiver."""

    __slots__ = ("receiver", "flight", "corrupted")

    def __init__(self, receiver: Phy, flight: _Flight, corrupted: bool):
        self.receiver = receiver
        self.flight = flight
        self.corrupted = corrupted


class PerCopyMedium(Medium):
    """The production medium with one reception record per in-flight copy."""

    def __init__(self, sim, config=None, obs=None, index_membership=None):
        super().__init__(sim, config, obs, index_membership)
        #: node_id -> the copies currently heading for that radio.
        self._active_receptions: Dict[int, List[_Copy]] = {}

    def register(self, phy: Phy) -> None:
        # Before the base class runs: it attaches a late joiner to the
        # flights already on the air, which needs the radio's list.
        self._active_receptions.setdefault(phy.node_id, [])
        super().register(phy)

    def enable_export(self) -> None:
        raise RuntimeError("the per-copy oracle does not run the parallel shard modes")

    def transmit(self, sender: Phy, frame: Frame) -> float:
        """Start transmitting ``frame``; all geometry is frozen now, the
        sender's position included (the production medium knows it only on
        demand)."""
        now = self.sim.now
        duration = self._airtime(frame.size_bytes)
        end_time = now + duration
        sender_pos = self._index.exact(sender, now)
        sender.transmitting = True
        stats = self.stats
        stats.transmissions += 1
        # A node that starts transmitting corrupts anything it was receiving.
        for copy in self._active_receptions[sender.node_id]:
            if not copy.corrupted:
                copy.corrupted = True
                stats.half_duplex_losses += 1
        flight = _Flight(sender, frame, end_time, sender_pos)
        for phy in self._index.transmission_window(sender, self._range, now):
            copy = _Copy(phy, flight, corrupted=False)
            ongoing = self._active_receptions[phy.node_id]
            if ongoing:
                # Overlapping energy at this receiver: everything is lost.
                for other in ongoing:
                    if not other.corrupted:
                        other.corrupted = True
                        stats.collisions += 1
                copy.corrupted = True
                stats.collisions += 1
            if phy.transmitting:
                copy.corrupted = True
                stats.half_duplex_losses += 1
            # Carrier sense reads this watermark (``Phy.carrier_busy``).
            phy.rx_busy_until = max(phy.rx_busy_until, end_time)
            ongoing.append(copy)
            flight.copies.append(copy)
        self._active.append(flight)
        self.sim.call_in(duration, self._finish_flight, (flight,))
        return duration

    def _finish_flight(self, flight: _Flight) -> None:
        self._active.remove(flight)
        stats = self.stats
        sender = flight.sender
        for copy in flight.copies:
            receiver = copy.receiver
            self._active_receptions[receiver.node_id].remove(copy)
            # Every field is read at visit time: a delivery callback that
            # powers a radio down mid-teardown is seen by the copies pending.
            if not receiver.enabled:
                stats.disabled_discards += 1
            elif copy.corrupted:
                pass
            elif receiver.transmitting:
                stats.half_duplex_losses += 1
            else:
                stats.deliveries += 1
                self._dispatch(receiver, flight.frame, sender.node_id)
        if self._set_shard is not None:
            self._set_shard(sender.shard)
        sender.transmission_finished(flight.frame)

    def radio_powered_down(self, phy: Phy) -> None:
        """Everything the radio hears, and anything it had on the air, is
        undecodable -- marked corrupted without counting a collision."""
        now = self.sim.now
        self._index.power_changed()
        for copy in self._active_receptions[phy.node_id]:
            copy.corrupted = True
        for flight in self._active:
            if flight.sender is phy and flight.end_time > now:
                for copy in flight.copies:
                    copy.corrupted = True

    def _attach_to_active(self, phy: Phy) -> None:
        """Give a radio that registered or powered up mid-flight a corrupted
        copy of every transmission it can sense (it missed their heads)."""
        if not self._active:
            return
        now = self.sim.now
        px, py = self._index.exact(phy, now)
        range_sq = self._range * self._range
        ongoing = self._active_receptions[phy.node_id]
        for flight in self._active:
            if flight.sender is phy or flight.end_time <= now:
                continue
            # A power cycle inside one airtime must not attach a second copy
            # of a transmission the radio still holds from before it went down.
            if any(copy.flight is flight for copy in ongoing):
                continue
            dx = flight.sender_pos[0] - px
            dy = flight.sender_pos[1] - py
            if dx * dx + dy * dy > range_sq:
                continue
            copy = _Copy(phy, flight, corrupted=True)
            phy.rx_busy_until = max(phy.rx_busy_until, flight.end_time)
            ongoing.append(copy)
            flight.copies.append(copy)

    def receptions_for(self, node_id: int) -> List[tuple]:
        return [
            (copy.flight.sender.node_id, copy.flight.end_time, copy.corrupted)
            for copy in self._active_receptions.get(node_id, ())
        ]


#: The names the parametrised suites use: the production medium (under the
#: name of either thing it is compared on) and its two oracles.
MEDIA = {
    "batch": Medium, "object": PerCopyMedium,
    "grid": Medium, "naive": LinearScanMedium,
}


@contextmanager
def scenario_medium(cls):
    """Within the block, ``Scenario.build`` constructs ``cls`` as its medium.

    ``None`` leaves the production class in place.  Only the name
    ``repro.workload.scenario.Medium`` is patched, and it is restored on exit
    whatever the block raised.
    """
    if cls is None:
        yield
        return
    production = scenario_module.Medium
    scenario_module.Medium = cls
    try:
        yield
    finally:
        scenario_module.Medium = production
