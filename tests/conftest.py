"""Shared test fixtures and helpers.

The central helper is :class:`StaticNetwork`: a fully wired protocol stack
(medium, MAC, AODV, MAODV, optional gossip agents) over *static* node
positions, so protocol behaviour can be asserted on hand-built topologies
(lines, stars, partitions) without mobility noise.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.config import GossipConfig
from repro.core.gossip import GossipAgent
from repro.metrics.collectors import DeliveryCollector
from repro.mobility.static import StaticMobility
from repro.multicast.maodv import MaodvRouter
from repro.net.addressing import make_group_address
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.routing.aodv import AodvRouter
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

GROUP = make_group_address(0)


@dataclass
class StaticNetwork:
    """A wired-up stack over static positions, for protocol tests."""

    sim: Simulator
    medium: Medium
    nodes: List[Node]
    aodv: Dict[int, AodvRouter]
    maodv: Dict[int, MaodvRouter]
    gossip: Dict[int, GossipAgent] = field(default_factory=dict)
    group: int = GROUP

    def start(self) -> None:
        """Start hello beaconing (and gossip agents, when present)."""
        for node in self.nodes:
            node.start()
        for router in self.aodv.values():
            router.start()
        for agent in self.gossip.values():
            agent.start()

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def join_all(self, members: Sequence[int], spacing_s: float = 0.5) -> None:
        """Schedule group joins for ``members``, ``spacing_s`` apart."""
        for index, member in enumerate(members):
            self.sim.call_at(
                self.sim.now + index * spacing_s,
                self.maodv[member].join_group,
                (self.group,),
            )

    def move(self, node_id: int, x: float, y: float) -> None:
        """Teleport a node (static mobility only)."""
        self.nodes[node_id].mobility.move_to(x, y)

    def tree_edges(self) -> List[Tuple[int, int]]:
        """All activated multicast tree links (as ordered pairs)."""
        edges = []
        for node_id, router in self.maodv.items():
            for neighbor in router.tree_neighbors(self.group):
                edges.append((node_id, neighbor))
        return sorted(edges)


def build_network(
    positions: Sequence[Tuple[float, float]],
    *,
    range_m: float = 100.0,
    seed: int = 1,
    with_gossip: bool = False,
    gossip_config: Optional[GossipConfig] = None,
) -> StaticNetwork:
    """Build a static-topology network with one node per position."""
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = Medium(sim, RadioConfig(transmission_range_m=range_m))
    nodes: List[Node] = []
    aodv: Dict[int, AodvRouter] = {}
    maodv: Dict[int, MaodvRouter] = {}
    gossip: Dict[int, GossipAgent] = {}
    for node_id, (x, y) in enumerate(positions):
        node = Node(node_id, sim, medium, StaticMobility(x, y), streams)
        nodes.append(node)
        router = AodvRouter(node)
        aodv[node_id] = router
        multicast = MaodvRouter(node, router)
        maodv[node_id] = multicast
        if with_gossip:
            gossip[node_id] = GossipAgent(
                node, multicast, router, GROUP, gossip_config or GossipConfig()
            )
    return StaticNetwork(
        sim=sim, medium=medium, nodes=nodes, aodv=aodv, maodv=maodv, gossip=gossip
    )


def python_calls(run, *args) -> List[str]:
    """Names of the Python functions entered while ``run(*args)`` executes, in
    order (``sys.setprofile``): how frame-count tests pin a hot path's depth.

    The cyclic garbage collector is off while ``run`` executes: a collection
    would finalize garbage left by earlier code (closing a suspended
    generator enters its frame), and those frames are not ``run``'s.
    """
    calls: List[str] = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def line_topology(count: int, spacing_m: float) -> List[Tuple[float, float]]:
    """Positions of ``count`` nodes on a horizontal line."""
    return [(i * spacing_m, 0.0) for i in range(count)]


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """A seeded random-stream factory."""
    return RandomStreams(1234)


@pytest.fixture
def collector() -> DeliveryCollector:
    """An empty delivery collector."""
    return DeliveryCollector()
