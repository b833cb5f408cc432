"""Packet and frame base types.

A :class:`Packet` is a network-layer unit: it knows its originator, its final
destination (node, group, or broadcast) and its size in bytes.  Protocols
subclass it to add their own fields (RREQ, MACT, gossip requests, ...).

A :class:`Frame` is the link-layer unit handed to the MAC: a packet plus the
addresses of the transmitting node and of the next hop (or broadcast).

A :class:`SeenCache` is the flood duplicate-suppression table of AODV, MAODV
and ODMRP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.net.addressing import BROADCAST_ADDRESS, NodeId

_packet_uid_counter = itertools.count()


def _next_uid() -> int:
    return next(_packet_uid_counter)


@dataclass(eq=False, repr=False)
class Packet:
    """Base class for every network-layer packet.

    Packets are identity objects: nothing compares two of them by value, so
    every packet class generates only its keyword ``__init__`` (a subclass
    passes the same flags to ``@dataclass``) and shares one ``__repr__``.

    Attributes
    ----------
    origin:
        Node that created the packet.
    destination:
        Final destination: a node id, a multicast group address, or
        :data:`~repro.net.addressing.BROADCAST_ADDRESS`.
    size_bytes:
        Wire size used to compute transmission delay and channel occupancy.
    ttl:
        Remaining hop budget; forwarding layers decrement it and drop the
        packet when it reaches zero.
    uid:
        Monotonically increasing identifier useful for tracing and
        de-duplication in tests.
    """

    origin: NodeId
    destination: int
    size_bytes: int = 64
    ttl: int = 32
    uid: int = field(default_factory=_next_uid)

    #: Class-level flag (not a dataclass field): link-layer control packets
    #: (MAC ACKs) override this with ``True``.  The medium's broadcast
    #: delivery fast path keys off it -- ordinary broadcast traffic skips
    #: the MAC's per-receiver address/ACK checks entirely.
    is_mac_control = False

    def forwarded(self, **changes) -> "Packet":
        """This packet's next-hop copy: every field kept but ``changes``.

        The copy is shallow, so a cached key (``flood_key``, ``mid``) is the
        original's own tuple.  It draws a fresh ``uid``, as a newly built
        packet does, unless ``changes`` keeps one (``uid=packet.uid``).
        """
        # What ``copy.copy`` does for a plain dataclass, minus its reduce
        # protocol: this runs once per forwarded packet.
        cls = self.__class__
        clone = cls.__new__(cls)
        state = clone.__dict__
        state.update(self.__dict__)
        if "uid" not in changes:
            state["uid"] = next(_packet_uid_counter)
        state.update(changes)
        return clone

    def __repr__(self) -> str:
        # The fields the generated repr showed: cached keys (``repr=False``) stay out.
        shown = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr
        )
        return f"{type(self).__name__}({shown})"


class SeenCache(dict):
    """Flood keys heard within the last ``lifetime`` seconds: key -> expiry.

    A key reads as seen while its expiry is later than now (RFC 3561 §6.3
    buffers an RREQ's key for PATH_DISCOVERY_TIME).  Expired keys already read
    as unseen; one pass drops them at most once per lifetime, so after any
    call the table holds only keys marked in the last two lifetimes.
    """

    __slots__ = ("lifetime", "_purge_at")

    def __init__(self, lifetime: float):
        super().__init__()
        self.lifetime = lifetime
        self._purge_at = lifetime

    def first_sight(self, key, now: float) -> bool:
        """False if ``key`` is seen at ``now``; else remember it and return True."""
        if now >= self._purge_at:
            self._purge_at = now + self.lifetime
            for stale in [k for k, expiry in self.items() if expiry <= now]:
                del self[stale]
        if self.get(key, 0.0) > now:  # simulation time is never negative
            return False
        self[key] = now + self.lifetime
        return True

    def mark(self, key, now: float) -> None:
        """Remember ``key`` as seen until ``now + lifetime``."""
        if not self.first_sight(key, now):
            self[key] = now + self.lifetime


class Frame:
    """A link-layer frame: one MAC-level transmission attempt.

    A plain slotted class rather than a dataclass: one is created per MAC
    transmission attempt and its fields are read in every per-receiver loop
    of the medium, so cheap construction and attribute access matter.
    """

    __slots__ = ("src", "dst", "packet", "header_bytes")

    def __init__(self, src: NodeId, dst: int, packet: Packet, header_bytes: int = 34):
        self.src = src
        self.dst = dst
        self.packet = packet
        #: Extra link-layer header bytes added on top of the packet size.
        self.header_bytes = header_bytes

    @property
    def size_bytes(self) -> int:
        """Total on-air size of the frame."""
        return self.packet.size_bytes + self.header_bytes

    @property
    def is_broadcast(self) -> bool:
        """True when the frame is link-layer broadcast."""
        return self.dst == BROADCAST_ADDRESS

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Frame({self.src}->{self.dst}, {type(self.packet).__name__}, "
            f"{self.size_bytes}B)"
        )


@dataclass(eq=False, repr=False)
class UnicastData(Packet):
    """A network-layer envelope carrying an upper-layer packet to one node.

    The AODV layer forwards :class:`UnicastData` hop by hop towards
    ``destination`` and hands ``payload`` to the destination node's protocol
    dispatcher.  Gossip replies and cached-gossip requests travel this way.
    """

    payload: Optional[Packet] = None

    def __post_init__(self) -> None:
        if self.payload is not None:
            # The envelope adds a small IP-like header over the payload.
            self.size_bytes = self.payload.size_bytes + 20
