"""Failure injection: scripted, random, and regionally correlated outages.

MANET protocols must survive nodes disappearing abruptly (battery death,
radio failure, leaving the field), which is distinct from mobility-induced
link breaks.  :class:`FailureSchedule` crashes and recovers specific nodes at
specific times; :class:`RandomFailureInjector` generates independent
per-node outages stochastically; :class:`RegionalFailureInjector` models
*correlated* outages -- a disc-shaped region (power cut, jammer, localised
disaster) knocks out every radio inside it at once.  All stochastic
injectors draw from seeded streams so experiments remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.mobility.base import RectangularArea
from repro.net.node import Node
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled outage: the node fails at ``start_s`` and recovers at ``end_s``."""

    node_id: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError("a failure cannot end before it starts")
        if self.start_s < 0:
            raise ValueError("failure times must be non-negative")

    @property
    def duration_s(self) -> float:
        """Length of the outage in seconds."""
        return self.end_s - self.start_s


class FailureSchedule:
    """Applies a fixed list of :class:`FailureEvent` to a set of nodes."""

    def __init__(self, sim: Simulator, nodes: Sequence[Node], events: Iterable[FailureEvent]):
        self.sim = sim
        self._nodes = {node.node_id: node for node in nodes}
        self.events: List[FailureEvent] = sorted(events, key=lambda e: e.start_s)
        self.failures_applied = 0
        self.recoveries_applied = 0
        for event in self.events:
            if event.node_id not in self._nodes:
                raise ValueError(f"failure event references unknown node {event.node_id}")

    def start(self) -> None:
        """Schedule every outage on the simulator (absolute times)."""
        call_at = self.sim.call_at
        for event in self.events:
            call_at(event.start_s, self._fail, (event.node_id,))
            call_at(event.end_s, self._recover, (event.node_id,))

    def _fail(self, node_id: int) -> None:
        self._nodes[node_id].fail()
        self.failures_applied += 1

    def _recover(self, node_id: int) -> None:
        self._nodes[node_id].recover()
        self.recoveries_applied += 1


class RandomFailureInjector:
    """Generates random outages for a node population.

    Each node independently suffers outages: the time to the next failure is
    exponential with mean ``mean_time_to_failure_s`` and each outage lasts a
    uniform time in ``[min_outage_s, max_outage_s]``.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        rng,
        *,
        mean_time_to_failure_s: float = 120.0,
        min_outage_s: float = 5.0,
        max_outage_s: float = 20.0,
        protected: Iterable[int] = (),
    ):
        if mean_time_to_failure_s <= 0:
            raise ValueError("mean_time_to_failure_s must be positive")
        if not 0 <= min_outage_s <= max_outage_s:
            raise ValueError("invalid outage duration bounds")
        self.sim = sim
        self.rng = rng
        self.mean_time_to_failure_s = mean_time_to_failure_s
        self.min_outage_s = min_outage_s
        self.max_outage_s = max_outage_s
        self._protected = set(protected)
        self._nodes = [node for node in nodes if node.node_id not in self._protected]
        self.outages: List[Tuple[int, float, float]] = []

    def start(self) -> None:
        """Arm the injector for every non-protected node."""
        for node in self._nodes:
            self._schedule_next_failure(node)

    def _schedule_next_failure(self, node: Node) -> None:
        delay = self.rng.expovariate(1.0 / self.mean_time_to_failure_s)
        self.sim.call_in(delay, self._fail, (node,))

    def _fail(self, node: Node) -> None:
        outage = self.rng.uniform(self.min_outage_s, self.max_outage_s)
        node.fail()
        self.outages.append((node.node_id, self.sim.now, self.sim.now + outage))
        self.sim.call_in(outage, self._recover, (node,))

    def _recover(self, node: Node) -> None:
        node.recover()
        self._schedule_next_failure(node)


@dataclass(frozen=True)
class RegionalOutage:
    """One applied regional outage (for analysis and assertions)."""

    center: Tuple[float, float]
    radius_m: float
    start_s: float
    end_s: float
    node_ids: Tuple[int, ...]


class RegionalFailureInjector:
    """Correlated regional outages: a disc knocks out every radio inside it.

    At exponentially spaced instants (mean ``mean_time_between_outages_s``)
    a disc of radius ``radius_m`` centred uniformly in ``area`` suffers an
    outage lasting a uniform draw from ``[min_outage_s, max_outage_s]``:
    every alive, non-protected node inside the disc at that instant crashes
    and recovers together.  This exercises the disabled-radio paths much
    harder than independent per-node outages -- whole tree branches
    disappear at once -- and models power cuts, jammers, or localised
    disasters.

    Nodes already down (from an overlapping strike or another injector) are
    not re-failed, so they are not double-counted in the outage log.  Note
    that ``Node.fail``/``Node.recover`` are idempotent flags, not reference
    counted: when several failure sources overlap on one node, the earliest
    recovery brings it back up.  Combine injectors on disjoint node sets
    (``protected``) when exact per-source outage windows matter.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        rng,
        *,
        area: RectangularArea,
        mean_time_between_outages_s: float = 60.0,
        radius_m: float = 50.0,
        min_outage_s: float = 5.0,
        max_outage_s: float = 20.0,
        protected: Iterable[int] = (),
    ):
        if mean_time_between_outages_s <= 0:
            raise ValueError("mean_time_between_outages_s must be positive")
        if radius_m <= 0:
            raise ValueError("radius_m must be positive")
        if not 0 <= min_outage_s <= max_outage_s:
            raise ValueError("invalid outage duration bounds")
        self.sim = sim
        self.rng = rng
        self.area = area
        self.mean_time_between_outages_s = mean_time_between_outages_s
        self.radius_m = radius_m
        self.min_outage_s = min_outage_s
        self.max_outage_s = max_outage_s
        self._protected = set(protected)
        self._nodes = [node for node in nodes if node.node_id not in self._protected]
        self._armed = False
        self.outages: List[RegionalOutage] = []

    def start(self) -> None:
        """Arm the injector."""
        self._armed = True
        self._schedule_next_strike()

    def stop(self) -> None:
        """Stop generating strikes; outages already in flight still recover."""
        self._armed = False

    def _schedule_next_strike(self) -> None:
        delay = self.rng.expovariate(1.0 / self.mean_time_between_outages_s)
        self.sim.call_in(delay, self._strike)

    def _strike(self) -> None:
        if not self._armed:
            return
        now = self.sim.now
        center = self.area.random_point(self.rng)
        duration = self.rng.uniform(self.min_outage_s, self.max_outage_s)
        radius_sq = self.radius_m * self.radius_m
        affected = []
        for node in self._nodes:
            if not node.alive:
                continue
            x, y = node.position(now)
            dx = x - center[0]
            dy = y - center[1]
            if dx * dx + dy * dy <= radius_sq:
                affected.append(node)
        for node in affected:
            node.fail()
        if affected:
            self.sim.call_in(duration, self._recover_group, (affected,))
        self.outages.append(
            RegionalOutage(
                center=center,
                radius_m=self.radius_m,
                start_s=now,
                end_s=now + duration,
                node_ids=tuple(node.node_id for node in affected),
            )
        )
        self._schedule_next_strike()

    def _recover_group(self, nodes: List[Node]) -> None:
        for node in nodes:
            node.recover()
