"""A mobile node and its protocol stack.

A :class:`Node` owns:

* a mobility model providing its position over time,
* a radio (:class:`~repro.net.phy.Phy`) bound to the shared medium,
* a CSMA/CA MAC,
* the receive table that routes received packets to the protocol that
  registered the packet's type (AODV, MAODV, gossip, applications),
* the neighbour-liveness table (:attr:`Node.heard`),
* a list of applications started when the scenario starts.

The node itself knows nothing about routing or gossip; protocols attach
themselves via :meth:`register_handler`, :meth:`register_mailbox` and
:meth:`add_link_failure_listener`.

Mailboxes
---------
A protocol may register, for one packet type, a *mailbox* instead of a
handler: a plain dict ``sender -> (packet, time received)`` that the receive
paths stamp where they would have called the handler -- one dict store and no
Python frame per copy.  It holds the **last** receipt per sender, a sender
keeping the position of its first pending receipt.  The owner takes on two
obligations the node cannot check: *the last receipt suffices* (applying it
alone must leave the owner's state as applying every receipt in order would)
and *drain before any read or write* of the state the receipts bear on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from repro.net.addressing import BROADCAST_ADDRESS, NodeId
from repro.net.mac import CsmaMac
from repro.net.medium import Medium
from repro.net.packet import Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

PacketHandler = Callable[[Packet, NodeId], None]
#: sender -> (packet, time received): the last receipt per sender.
Mailbox = Dict[NodeId, Tuple[Packet, float]]
LinkFailureListener = Callable[[Packet, NodeId], None]

#: Bound of the random delay before re-broadcasting a flooded packet, which
#: prevents the synchronised-rebroadcast collisions of the hidden-terminal
#: problem.  Real AODV implementations use the same trick; every router here
#: that floods (AODV, MAODV, flooding, ODMRP) rebroadcasts through
#: :meth:`Node.broadcast_jittered`.
BROADCAST_JITTER_S = 0.01


class Node:
    """One mobile node in the ad-hoc network."""

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        medium: Medium,
        mobility,
        streams: RandomStreams,
        build_mac: bool = True,
    ):
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.mobility = mobility
        self.streams = streams
        self.phy = Phy(self, medium)
        #: ``None`` for foreign radios in a sharded worker: a dark radio's
        #: MAC state machine can never run (its :class:`Phy` callbacks only
        #: fire for enabled radios), so the worker skips the MAC object and
        #: its per-node backoff stream.  ``for_node`` streams are
        #: hash-derived, so not creating one consumes nothing shared.
        self.mac: Optional[CsmaMac] = None
        #: Packet type -> its handler, or the mailbox registered in its place.
        self._handlers: Dict[Type[Packet], Union[PacketHandler, Mailbox]] = {}
        #: The receive table, the node's one receive mechanism: concrete
        #: packet type -> its one receiver, the handler or the mailbox dict
        #: (see :meth:`_resolve_receiver`), or ``False`` when nothing
        #: receives the type.  Filled lazily per type, cleared whenever a
        #: receiver registers: receiving is one dict hit however many
        #: protocols or groups are registered.  :meth:`deliver` reads it, and
        #: so does the medium for ordinary broadcast copies (lent through the
        #: MAC below) -- this dict object, never a copy.
        self._dispatch_cache: Dict[Type[Packet], Union[PacketHandler, Mailbox, bool]] = {}
        #: Neighbour liveness: sender -> time anything was last received
        #: from it, written by both entries before the receiver runs.  AODV
        #: adopts this very dict as its neighbour table.
        self.heard: Dict[NodeId, float] = {}
        if build_mac:
            self.mac = CsmaMac(
                sim,
                self.phy,
                streams.for_node("mac", node_id),
                on_receive=self.deliver,
                on_unicast_failure=self._on_unicast_failure,
            )
            self.mac.lend_broadcast_route(
                self._dispatch_cache, self._resolve_receiver, self.heard
            )
        self._link_failure_listeners: List[LinkFailureListener] = []
        self.applications: List = []
        self._started = False

    # ----------------------------------------------------------------- basics
    def position(self, at_time: Optional[float] = None) -> Tuple[float, float]:
        """Return the node position at ``at_time`` (default: now)."""
        if at_time is None:
            at_time = self.sim.now
        return self.mobility.position(at_time)

    # ------------------------------------------------------ failure injection
    @property
    def alive(self) -> bool:
        """False while the node is simulated as crashed (radio off)."""
        return self.phy.enabled

    def fail(self) -> None:
        """Crash the node: its radio stops transmitting and receiving.

        The medium drops the node from every interference set, so a crashed
        node no longer appears as a neighbour or influences channel
        statistics.  Protocol state (route tables, gossip buffers) is
        intentionally kept, modelling a transient outage rather than a
        reboot; neighbours detect the failure through missed hellos and
        MAC-level delivery failures.
        """
        self.phy.power_down()

    def recover(self) -> None:
        """Bring a crashed node back online.

        The radio rejoins the channel immediately (including the
        interference sets of any transmissions already in flight).
        """
        self.phy.power_up()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Node({self.node_id})"

    # ----------------------------------------------------------- dispatcher
    def register_handler(self, packet_type: Type[Packet], handler: PacketHandler) -> None:
        """Route received packets of ``packet_type`` (exact class) to ``handler``."""
        self._register(packet_type, handler)

    def register_mailbox(self, packet_type: Type[Packet], mailbox: Mailbox) -> None:
        """Store received packets of ``packet_type`` in ``mailbox`` instead of
        calling a handler (see "Mailboxes" in the module docstring).

        A type has one receiver: a mailbox and a handler for the same type
        is the :class:`ValueError` two handlers are.
        """
        if type(mailbox) is not dict:
            # The receive paths tell a mailbox from a handler by exact class.
            raise TypeError(f"a mailbox is a plain dict, not {type(mailbox).__name__}")
        self._register(packet_type, mailbox)

    def _register(self, packet_type: Type[Packet], receiver) -> None:
        if packet_type in self._handlers:
            raise ValueError(
                f"node {self.node_id}: handler for {packet_type.__name__} already registered"
            )
        self._handlers[packet_type] = receiver
        self._dispatch_cache.clear()

    def deliver(self, packet: Packet, from_node: NodeId) -> None:
        """Dispatch a packet received from the MAC (or from a local protocol)."""
        if from_node != self.node_id and from_node >= 0:
            self.heard[from_node] = self.sim.now
        receiver = self._dispatch_cache.get(type(packet))
        if receiver is None:
            receiver = self._resolve_receiver(type(packet))
        if receiver.__class__ is dict:
            receiver[from_node] = (packet, self.sim.now)
        elif receiver:
            receiver(packet, from_node)

    def _resolve_receiver(self, packet_type: Type[Packet]):
        """Resolve and cache the one receiver of ``packet_type``: the handler
        or mailbox registered for the exact type, else for the first
        registered base class, else ``False`` -- falsy, so an unhandled copy
        costs no call, and not ``None``, so the miss is cached too."""
        receiver = self._handlers.get(packet_type)
        if receiver is None:
            receiver = next(
                (candidate for registered_type, candidate in self._handlers.items()
                 if issubclass(packet_type, registered_type)),
                False,
            )
        self._dispatch_cache[packet_type] = receiver
        return receiver

    # ------------------------------------------------------------- link layer
    def send_frame(self, packet: Packet, next_hop: NodeId) -> bool:
        """Hand a packet to the MAC for single-hop transmission."""
        return self.mac.send(packet, next_hop)

    def broadcast_jittered(self, packet: Packet, rng) -> None:
        """Broadcast ``packet`` after a delay drawn from ``rng`` in
        ``[0, BROADCAST_JITTER_S]``: the caller's own stream, so each
        protocol's draws stay its own."""
        self.sim.call_in(
            rng.uniform(0.0, BROADCAST_JITTER_S), self.send_frame, (packet, BROADCAST_ADDRESS)
        )

    def add_link_failure_listener(self, listener: LinkFailureListener) -> None:
        """Subscribe to MAC-level unicast delivery failures (link-break hints)."""
        self._link_failure_listeners.append(listener)

    def _on_unicast_failure(self, packet: Packet, next_hop: NodeId) -> None:
        for listener in self._link_failure_listeners:
            listener(packet, next_hop)

    # ----------------------------------------------------------- applications
    def add_application(self, application) -> None:
        """Attach an application object; it is started with the node."""
        self.applications.append(application)
        if self._started and hasattr(application, "start"):
            application.start()

    def start(self) -> None:
        """Start every attached application (idempotent)."""
        if self._started:
            return
        self._started = True
        for application in self.applications:
            if hasattr(application, "start"):
                application.start()
