"""Wireless network substrate.

This package models the pieces of the GloMoSim stack that the paper's
evaluation relies on:

* :mod:`repro.net.addressing` -- node identifiers, broadcast and multicast
  group addresses.
* :mod:`repro.net.packet` -- base packet / frame types shared by every layer.
* :mod:`repro.net.medium` -- the shared wireless medium: unit-disk
  propagation, carrier sensing and collision handling, with all geometry
  frozen at transmission start.
* :mod:`repro.net.spatial` -- spatial indexing behind the medium: a uniform
  grid over a bounded-drift position memo (O(k) candidate queries).
* :mod:`repro.net.phy` -- per-node radio bound to the medium.
* :mod:`repro.net.mac` -- a CSMA/CA MAC in the spirit of IEEE 802.11 DCF:
  carrier sense, binary-exponential backoff, unicast ACK + retransmission,
  broadcast without recovery.
* :mod:`repro.net.node` -- a mobile node owning a protocol stack.
"""

from repro.net.addressing import BROADCAST_ADDRESS, GroupAddress, NodeId, is_multicast
from repro.net.config import RadioConfig
from repro.net.mac import CsmaMac, MacStats
from repro.net.medium import Medium, MediumStats
from repro.net.node import Node
from repro.net.packet import Frame, Packet
from repro.net.spatial import PositionMemo, UniformGridIndex

__all__ = [
    "BROADCAST_ADDRESS",
    "CsmaMac",
    "Frame",
    "GroupAddress",
    "MacStats",
    "Medium",
    "MediumStats",
    "Node",
    "NodeId",
    "Packet",
    "PositionMemo",
    "RadioConfig",
    "UniformGridIndex",
    "is_multicast",
]
