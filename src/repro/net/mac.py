"""A CSMA/CA medium-access layer.

The MAC models the parts of IEEE 802.11 DCF that shape the paper's results:

* carrier sense plus random backoff before every transmission,
* binary-exponential backoff on retransmission,
* link-layer acknowledgement and retransmission for unicast frames,
* no recovery for broadcast frames (they are sent exactly once),
* a bounded transmit queue (congestion drops).

A failed unicast (retry limit exceeded) is reported to the upper layer, which
is how AODV/MAODV detect broken links in addition to missed hello beacons.

Hot path: the MAC's state machine has at most one pending event at any time
(backoff poll or ACK-timeout -- they are mutually exclusive, and each is
scheduled only once the previous one has fired or been cancelled), so the
MAC keeps that one calendar entry itself and every transition schedules it
with a bound method.  Nothing on the per-frame path allocates beyond the
frame and its calendar entry.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.net.addressing import BROADCAST_ADDRESS, NodeId
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator


# 802.11 DSSS timing (2 Mbps PHY) and DCF parameters.
SLOT_TIME_S = 20e-6
SIFS_S = 10e-6
DIFS_S = 50e-6
#: Contention-window bounds (slots) of the binary-exponential backoff.
CW_MIN = 16
CW_MAX = 1024
#: Retransmissions of a unicast frame before it is reported as failed.
RETRY_LIMIT = 4
ACK_TIMEOUT_S = 1.5e-3
ACK_SIZE_BYTES = 14
#: Frames the transmit queue holds; one more is a congestion drop.
QUEUE_LIMIT = 64


@dataclass(eq=False, repr=False)
class MacAck(Packet):
    """Link-layer acknowledgement for a unicast frame."""

    acked_uid: int = -1

    #: Link-layer control: excluded from the medium's broadcast fast path
    #: (see ``Packet.is_mac_control``).
    is_mac_control = True

    def __post_init__(self) -> None:
        self.ttl = 1


class MacStats:
    """Counters kept by each MAC instance."""

    def __init__(self) -> None:
        self.enqueued = 0
        self.queue_drops = 0
        self.data_transmissions = 0
        self.broadcast_transmissions = 0
        self.ack_transmissions = 0
        self.retransmissions = 0
        self.unicast_failures = 0
        self.delivered_to_upper = 0
        self.acks_received = 0


class _MacState(enum.Enum):
    IDLE = "idle"
    CONTEND = "contend"
    TRANSMIT = "transmit"
    WAIT_ACK = "wait_ack"


#: The states as module constants: the poll compares against them on every
#: event, and a global is one load where ``_MacState.X`` is two.
_IDLE = _MacState.IDLE
_CONTEND = _MacState.CONTEND
_TRANSMIT = _MacState.TRANSMIT
_WAIT_ACK = _MacState.WAIT_ACK


class _OutgoingFrame:
    """One queued frame plus its retry/backoff state."""

    __slots__ = ("frame", "retries", "cw")

    def __init__(self, frame: Frame, cw: int):
        self.frame = frame
        self.retries = 0
        self.cw = cw


class CsmaMac:
    """Carrier-sense MAC with unicast ARQ.

    Parameters
    ----------
    sim, phy, rng:
        Simulation engine, radio and the random stream used for backoff.
    on_receive:
        ``callback(packet, from_node_id)`` invoked for every frame addressed
        to this node (or broadcast).
    on_unicast_failure:
        ``callback(packet, next_hop)`` invoked when a unicast frame exhausts
        its retries; used by routing layers as a link-break signal.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: Phy,
        rng,
        *,
        on_receive: Optional[Callable[[Packet, NodeId], None]] = None,
        on_unicast_failure: Optional[Callable[[Packet, NodeId], None]] = None,
    ):
        self.sim = sim
        self.phy = phy
        self.rng = rng
        self._getrandbits = rng.getrandbits
        self.stats = MacStats()
        self.on_receive = on_receive
        self.on_unicast_failure = on_unicast_failure

        self._node_id = phy.node_id
        # Observability binding, reached through the radio's channel so the
        # MAC needs no extra wiring.  Metrics are bound once here; the
        # cached bool gates every probe site (zero cost when disabled).
        obs = phy.medium.obs
        self._obs_on = obs.enabled
        self._c_defers = obs.counter("mac.csma.defers")
        self._c_backoffs = obs.counter("mac.csma.backoffs")
        self._state = _IDLE
        self._queue: Deque[_OutgoingFrame] = deque()
        self._current: Optional[_OutgoingFrame] = None
        #: Calendar entry of the single pending state-machine event (backoff
        #: poll or ACK-timeout; mutually exclusive by construction).  Every
        #: site that schedules it runs with the previous one fired, or -- the
        #: ACK-timeout when the ACK arrives -- cancelled through this entry.
        self._pending: Optional[list] = None
        self._poll = self._attempt_transmission
        #: Where an enabled radio's frames go: straight onto the channel.
        self._medium = phy.medium
        # Recently received unicast frame ids, used to suppress duplicate
        # deliveries caused by lost ACKs + retransmission (802.11 does the
        # same with its retry bit and sequence-number cache).  Created by the
        # first unicast received: most nodes of a flood never get one.
        self._recent_unicast: Optional[Deque[tuple]] = None

        phy.set_receive_callback(self._on_phy_receive)
        # Intact unicast frames addressed elsewhere (which _on_phy_receive
        # would discard unread) are filtered medium-side without a dispatch.
        phy.unicast_filter = True
        phy.on_transmission_finished = self._frame_done

    # ----------------------------------------------------------------- public
    @property
    def node_id(self) -> NodeId:
        """Identifier of the owning node."""
        return self._node_id

    @property
    def state(self) -> str:
        """Current MAC state name (for tests and debugging)."""
        return self._state.value

    @property
    def queue_length(self) -> int:
        """Number of frames waiting to be transmitted (excluding the current one)."""
        return len(self._queue)

    @property
    def on_receive(self) -> Optional[Callable[[Packet, NodeId], None]]:
        """Upper-layer entry point.  Assignable at any time: a lent broadcast
        route bypasses it, so assigning it ends the loan."""
        return self._on_receive

    @on_receive.setter
    def on_receive(self, callback: Optional[Callable[[Packet, NodeId], None]]) -> None:
        self._on_receive = callback
        self.phy.broadcast_route = None

    def lend_broadcast_route(self, receivers: dict, resolve: Callable, heard: dict) -> None:
        """Lend the radio the node's receive table (``Phy.broadcast_route``):
        the lender vouches that running it *is* :attr:`on_receive`."""
        self.phy.broadcast_route = (receivers, resolve, self.stats, heard)

    def send(self, packet: Packet, next_hop: int) -> bool:
        """Queue ``packet`` for transmission to ``next_hop``.

        Returns ``False`` when the frame was dropped because the transmit
        queue is full.
        """
        frame = Frame(src=self._node_id, dst=next_hop, packet=packet)
        queue = self._queue
        if len(queue) >= QUEUE_LIMIT:
            self.stats.queue_drops += 1
            return False
        self.stats.enqueued += 1
        outgoing = _OutgoingFrame(frame, CW_MIN)
        if self._state is _IDLE:
            # Idle means no current frame and an empty queue: this one
            # contends at once.
            self._current = outgoing
            self._start_contention()
        else:
            queue.append(outgoing)
        return True

    # ----------------------------------------------------------- transmit path
    def _start_contention(self) -> None:
        self._state = _CONTEND
        if self._obs_on:
            self._c_backoffs.inc()
        # The backoff draw is ``rng.randrange(cw)`` spelled out: same bits
        # from the same stream, no frames.
        cw = self._current.cw
        bits = cw.bit_length()
        getrandbits = self._getrandbits
        slots = getrandbits(bits)
        while slots >= cw:
            slots = getrandbits(bits)
        self._pending = self.sim.call_in(
            DIFS_S + slots * SLOT_TIME_S, self._poll
        )

    def _attempt_transmission(self) -> None:
        current = self._current
        if self._state is not _CONTEND or current is None:
            return
        phy = self.phy
        sim = self.sim
        # ``Phy.carrier_busy`` inline, behind a ``transmitting`` test that is
        # not redundant with it: a dark radio senses nothing, but one whose
        # own truncated flight (an ACK cut short by the power-down) is still
        # on the air must defer.
        if phy.transmitting or (phy.enabled and phy.rx_busy_until > sim.now):
            # Defer: redraw the backoff (as in ``_start_contention``) and try
            # again when it expires.  This poll is most of a busy run's
            # calendar, so it is kept flat: two frames, this one and
            # ``call_in``.
            if self._obs_on:
                self._c_defers.inc()
                self._c_backoffs.inc()
            cw = current.cw
            bits = cw.bit_length()
            getrandbits = self._getrandbits
            slots = getrandbits(bits)
            while slots >= cw:
                slots = getrandbits(bits)
            self._pending = sim.call_in(
                DIFS_S + slots * SLOT_TIME_S, self._poll
            )
            return
        self._state = _TRANSMIT
        frame = current.frame
        if frame.dst == BROADCAST_ADDRESS:
            self.stats.broadcast_transmissions += 1
        else:
            self.stats.data_transmissions += 1
        if phy.enabled:
            self._medium.transmit(phy, frame)
        else:
            phy.transmit(frame)  # a dark radio's fake flight
        # No "transmission done" event: the phy signals the end of flight
        # through _frame_done, saving one scheduled event per frame.

    def _frame_done(self, frame: Frame) -> None:
        """The completion routine: the radio's end-of-flight hook, and the
        ACK and ACK-timeout paths' way out of ``WAIT_ACK``.

        Fires, with the frame, for every transmission this radio started.
        Only the *current* frame advances the state machine: ACK flights
        (and stale disabled-radio fake flights, which can end out of order)
        carry a different frame and are ignored.  The current frame's
        flight ends only in ``TRANSMIT``, so a call in ``WAIT_ACK`` is the
        ACK or the retry limit.  A unicast flight's end waits for its ACK;
        anything else finishes the frame, and the next queued one contends.
        """
        current = self._current
        if current is None or frame is not current.frame:
            return
        if self._state is _TRANSMIT and frame.dst != BROADCAST_ADDRESS:
            self._state = _WAIT_ACK
            self._pending = self.sim.call_in(ACK_TIMEOUT_S, self._ack_timeout)
            return
        if self._queue:
            self._current = self._queue.popleft()
            self._start_contention()
        else:
            self._current = None
            self._state = _IDLE

    def _ack_timeout(self) -> None:
        if self._state is not _WAIT_ACK or self._current is None:
            return
        current = self._current
        if current.retries >= RETRY_LIMIT:
            self.stats.unicast_failures += 1
            failed = current.frame
            self._frame_done(failed)
            if self.on_unicast_failure is not None:
                self.on_unicast_failure(failed.packet, failed.dst)
            return
        current.retries += 1
        current.cw = min(current.cw * 2, CW_MAX)
        self.stats.retransmissions += 1
        self._start_contention()

    # ------------------------------------------------------------ receive path
    def _on_phy_receive(self, frame: Frame, sender_id: NodeId) -> None:
        dst = frame.dst
        if dst != self._node_id and dst != BROADCAST_ADDRESS:
            return
        packet = frame.packet
        if isinstance(packet, MacAck):
            self._handle_ack(packet, sender_id)
            return
        if dst != BROADCAST_ADDRESS:
            self._send_ack(packet, sender_id)
            key = (sender_id, packet.uid)
            recent = self._recent_unicast
            if recent is None:
                recent = self._recent_unicast = deque(maxlen=32)
            elif key in recent:
                # Retransmission of a frame whose ACK was lost: acknowledge
                # again but do not deliver a duplicate upward.
                return
            recent.append(key)
        self.stats.delivered_to_upper += 1
        if self._on_receive is not None:
            self._on_receive(packet, sender_id)

    def _handle_ack(self, ack: MacAck, sender_id: NodeId) -> None:
        self.stats.acks_received += 1
        if (
            self._state is _WAIT_ACK
            and self._current is not None
            and ack.acked_uid == self._current.frame.packet.uid
            and sender_id == self._current.frame.dst
        ):
            self.sim.cancel(self._pending)  # the ACK-timeout
            self._frame_done(self._current.frame)

    def _send_ack(self, packet: Packet, sender_id: NodeId) -> None:
        ack = MacAck(
            origin=self._node_id,
            destination=sender_id,
            size_bytes=ACK_SIZE_BYTES,
            acked_uid=packet.uid,
        )
        self.sim.call_in(SIFS_S, self._transmit_ack, (ack, sender_id))

    def _transmit_ack(self, ack: MacAck, sender_id: NodeId) -> None:
        phy = self.phy
        if phy.transmitting:
            # Half-duplex: we started another transmission in the meantime,
            # the data sender will retransmit.
            return
        frame = Frame(src=self._node_id, dst=sender_id, packet=ack)
        self.stats.ack_transmissions += 1
        if phy.enabled:
            self._medium.transmit(phy, frame)
        else:
            phy.transmit(frame)
