#!/usr/bin/env python3
"""Highway convoy: scripted mobility and the lower-level building-block API.

A convoy of vehicles drives along a highway while the lead vehicle multicasts
hazard warnings to the convoy.  One vehicle pulls over for a while (drops out
of radio range) and later catches up -- the warnings it missed are recovered
through Anonymous Gossip once it rejoins, without any acknowledgement or
retransmission machinery in the multicast protocol.

Unlike the other examples this one does not use the ScenarioConfig helper; it
wires the stack (medium, nodes, AODV, MAODV, gossip agents) by hand with
scripted :class:`WaypointTraceMobility`, showing how the building blocks
compose for custom experiments.

Run with::

    python examples/highway_convoy.py
"""

from __future__ import annotations

from repro.core import GossipAgent, GossipConfig
from repro.metrics.reporting import format_rows
from repro.mobility.trace import WaypointTraceMobility
from repro.multicast.maodv import MaodvRouter
from repro.net.addressing import make_group_address
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.routing.aodv import AodvRouter
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

GROUP = make_group_address(0)
CONVOY_SIZE = 6
SPACING_M = 60.0
CONVOY_SPEED_MPS = 25.0
DURATION_S = 120.0


def _convoy_trace(index: int) -> WaypointTraceMobility:
    """Vehicles drive in a line at constant speed, keeping their spacing."""
    start_x = -index * SPACING_M
    return WaypointTraceMobility([
        (0.0, start_x, 0.0),
        (DURATION_S, start_x + CONVOY_SPEED_MPS * DURATION_S, 0.0),
    ])


def _straggler_trace(index: int) -> WaypointTraceMobility:
    """The straggler pulls over at t=30 s, waits, then catches up by t=80 s."""
    start_x = -index * SPACING_M
    stop_x = start_x + CONVOY_SPEED_MPS * 30.0
    rejoin_x = start_x + CONVOY_SPEED_MPS * 80.0
    return WaypointTraceMobility([
        (0.0, start_x, 0.0),
        (30.0, stop_x, 0.0),
        (55.0, stop_x, 400.0),          # pulled over, off the road
        (80.0, rejoin_x, 0.0),          # caught back up
        (DURATION_S, start_x + CONVOY_SPEED_MPS * DURATION_S, 0.0),
    ])


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(42)
    medium = Medium(sim, RadioConfig(transmission_range_m=100.0))

    straggler = 3
    nodes, aodv, maodv, gossip = [], {}, {}, {}
    for index in range(CONVOY_SIZE):
        trace = _straggler_trace(index) if index == straggler else _convoy_trace(index)
        node = Node(index, sim, medium, trace, streams)
        router = AodvRouter(node)
        multicast = MaodvRouter(node, router)
        agent = GossipAgent(node, multicast, router, GROUP, GossipConfig())
        nodes.append(node)
        aodv[index] = router
        maodv[index] = multicast
        gossip[index] = agent

    # Every vehicle is a group member; the lead vehicle (0) is the source.
    received = {index: set() for index in range(CONVOY_SIZE)}
    for index in range(CONVOY_SIZE):
        maodv[index].add_delivery_listener(
            lambda data, i=index: received[i].add(data.seq)
        )
        gossip[index].add_recovery_listener(
            lambda data, i=index: received[i].add(data.seq)
        )
        sim.call_at(0.5 + 0.5 * index, maodv[index].join_group, (GROUP,))

    warnings_sent = []

    def send_warning() -> None:
        data = maodv[0].send_data(GROUP, 64)
        warnings_sent.append(data.seq)
        if sim.now + 2.0 <= 100.0:
            sim.call_in(2.0, send_warning)

    sim.call_at(10.0, send_warning)

    for node in nodes:
        node.start()
    for router in aodv.values():
        router.start()
    for agent in gossip.values():
        agent.start()
    sim.run(until=DURATION_S)

    rows = []
    for index in range(CONVOY_SIZE):
        role = "lead / source" if index == 0 else (
            "straggler" if index == straggler else "convoy")
        recovered = gossip[index].stats.recovered_messages
        rows.append([
            f"vehicle {index}",
            role,
            f"{len(received[index])}/{len(warnings_sent)}",
            recovered,
            f"{gossip[index].stats.goodput_percent:.0f}%",
        ])
    print(format_rows(
        ["vehicle", "role", "warnings received", "recovered via gossip", "goodput"],
        rows,
    ))
    missing = len(warnings_sent) - len(received[straggler])
    print(f"\nThe straggler missed the warnings sent while it was pulled over and "
          f"recovered them through gossip after rejoining ({missing} still missing).")


if __name__ == "__main__":
    main()
