"""AODV control messages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.net.addressing import BROADCAST_ADDRESS, NodeId
from repro.net.packet import Packet


@dataclass(eq=False, repr=False)
class RouteRequest(Packet):
    """RREQ: flooded by a node looking for a route to ``target``."""

    target: NodeId = -1
    target_seq: int = 0
    target_seq_known: bool = False
    origin_seq: int = 0
    rreq_id: int = 0
    hop_count: int = 0
    #: Duplicate-suppression key ``(origin, rreq_id)``, built once by the
    #: originator: forwarded copies share it, so every node's seen-cache
    #: entry of one flood is this one tuple.
    flood_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.flood_key = (self.origin, self.rreq_id)


@dataclass(eq=False, repr=False)
class RouteReply(Packet):
    """RREP: unicast hop-by-hop back towards the RREQ originator."""

    target: NodeId = -1
    target_seq: int = 0
    hop_count: int = 0
    lifetime_s: float = 10.0


@dataclass(eq=False, repr=False)
class RouteError(Packet):
    """RERR: announces destinations that became unreachable via the sender."""

    #: Mapping of unreachable destination -> last known sequence number.
    unreachable: Dict[NodeId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS


@dataclass(eq=False, repr=False)
class HelloMessage(Packet):
    """One-hop beacon advertising the sender's liveness to its neighbours."""

    seq: int = 0

    def __post_init__(self) -> None:
        self.destination = BROADCAST_ADDRESS
        self.ttl = 1
