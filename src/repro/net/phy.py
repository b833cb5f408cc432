"""The per-node radio.

The :class:`Phy` is the thin adapter between a node's MAC and the shared
:class:`~repro.net.medium.Medium`: it holds the reception state the medium
keeps per radio, ends its flights and delivers received frames upward.  The
MAC puts an enabled radio's frames straight on the medium; :meth:`Phy.transmit`
is for tests and for a powered-down radio's fake flights.

The radio is on the per-frame hot path, so it is slotted and what it exposes
upward -- :attr:`receive_callback`, :attr:`on_transmission_finished`, the
:attr:`unicast_filter` flag and the :attr:`broadcast_route` -- are plain
attributes the medium reads directly: no per-frame closures, no intermediate
method hops.  The broadcast route is data, not a function, so a decoded
broadcast copy costs no Python frame between the medium and its handler.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, TYPE_CHECKING

from repro.net.medium import Medium
from repro.net.packet import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node


def _ignore_flight_end(frame: Frame) -> None:
    """The end-of-flight hook of a radio no MAC drives."""


class Phy:
    """A half-duplex radio bound to one node and one medium."""

    __slots__ = ("node", "node_id", "medium", "transmitting", "enabled",
                 "receive_callback", "broadcast_route", "_unicast_filter",
                 "on_transmission_finished", "rx_busy_until", "rx_current",
                 "shard")

    def __init__(self, node: "Node", medium: Medium):
        self.node = node
        #: Identifier of the owning node (node ids are immutable, so the
        #: lookup is flattened out of the per-frame paths).
        self.node_id: int = node.node_id
        self.medium = medium
        #: Set by the medium for a flight's airtime.
        self.transmitting = False
        #: A powered-down radio neither transmits nor receives; used for
        #: failure injection (node crashes) in tests and scenarios.
        self.enabled = True
        #: Invoked for every successfully received frame that does not take
        #: :attr:`broadcast_route`.  Public so the medium dispatches straight
        #: to the MAC without an intermediate method call per frame.
        self.receive_callback: Optional[Callable[[Frame, int], None]] = None
        #: Route of ordinary broadcast copies (all but link-layer control):
        #: ``(receivers, resolve, mac_stats, heard)`` -- the node's receive
        #: table (``type(packet)`` -> receiver; the very dict the node clears
        #: on a late registration, so no hook is needed), its miss resolver,
        #: the ``MacStats`` whose ``delivered_to_upper`` a copy bumps and the
        #: node's liveness table (sender -> time last heard).  The medium
        #: runs it itself.  Only the MAC writes it: lent while its upper
        #: layer *is* that table, withdrawn (``None``) when ``on_receive`` is
        #: reassigned; without it copies take :attr:`receive_callback`.
        self.broadcast_route: Optional[tuple] = None
        #: See :attr:`unicast_filter`.
        self._unicast_filter = False
        #: Invoked with the frame whenever a transmission started by this
        #: radio ends.  The MAC keys its state machine off this hook instead
        #: of scheduling a twin "transmission done" event next to the
        #: medium's own end-of-flight event (they always fired back to
        #: back); the frame identifies *which* flight ended, so a stale
        #: notification (e.g. from a disabled-radio fake flight) can never
        #: be mistaken for the current one.  A radio no MAC drives ignores
        #: the end of its flights.
        self.on_transmission_finished: Callable[[Frame], None] = _ignore_flight_end
        #: The reception record, maintained by the medium: one per radio,
        #: not one per copy, and two fields.  ``rx_busy_until`` is the latest
        #: end-of-flight instant over every copy this radio has held (set on
        #: attach): the radio holds energy iff it lies in the future -- the
        #: O(1) carrier-sense test -- or equals *now* while a flight ending
        #: now that lists the radio is still on the medium's active list
        #: (the medium resolves that tie).  Of the copies held, **at most
        #: one is decodable** -- a copy decodes only if it arrived on a radio
        #: holding nothing and not transmitting, and the next arrival (or
        #: this radio starting to transmit, or powering down) kills it.
        #: ``rx_current`` is that one flight (a ``ReceptionBatch``), else
        #: ``None``: "this copy is intact" is ``rx_current is batch``, and
        #: "everything this radio is hearing is now lost" is ``rx_current =
        #: None``.  A pointer at a flight that has ended (``done``) is no
        #: lock: a unicast teardown visits only the addressee.
        self.rx_busy_until = -1.0
        self.rx_current = None
        #: Home shard of this radio under a region-sharded engine (see
        #: :mod:`repro.sim.shard`): the shard whose region contained the
        #: node's initial position.  Assigned by the scenario builder; stays
        #: 0 in unsharded runs.  A load-routing hint, never a correctness
        #: input -- nodes may roam outside their home region freely.
        self.shard = 0
        medium.register(self)

    @property
    def unicast_filter(self) -> bool:
        """When ``True`` (set by the MAC, which discards such frames unread),
        the medium counts -- but never dispatches -- intact copies of unicast
        frames addressed to some other node.  The medium keeps count of the
        radios without it: while there are none, a unicast teardown reads
        the addressee's copy only."""
        return self._unicast_filter

    @unicast_filter.setter
    def unicast_filter(self, value: bool) -> None:
        value = bool(value)
        if value != self._unicast_filter:
            self._unicast_filter = value
            self.medium.unicast_filter_changed(value)

    def position(self, at_time: float) -> Tuple[float, float]:
        """Position of the owning node at ``at_time``."""
        return self.node.position(at_time)

    def set_receive_callback(self, callback: Callable[[Frame, int], None]) -> None:
        """Register the function invoked for every successfully received frame."""
        self.receive_callback = callback

    def carrier_busy(self) -> bool:
        """Carrier sense: is the channel busy as perceived by this radio?

        Busy while the radio transmits or holds an in-flight copy, i.e. is
        in the interference set (frozen at transmission start) of some
        flight, so it always agrees with the reception bookkeeping.  Copies
        are removed exactly at their end time, so "some held copy is still
        in flight" is :attr:`rx_busy_until` lying in the future.  A
        powered-down radio senses nothing.
        """
        return self.enabled and (
            self.transmitting or self.rx_busy_until > self.medium.sim.now
        )

    def transmit(self, frame: Frame) -> float:
        """Put ``frame`` on the air; returns its airtime in seconds.

        The entry for tests and for a powered-down radio's MAC: the MAC hands
        an enabled radio's frame straight to ``Medium.transmit``.  A
        powered-down radio silently swallows the frame; it still reports
        the airtime and still signals :attr:`on_transmission_finished` at the
        end of it, so the MAC state machine keeps functioning.
        """
        if not self.enabled:
            duration = self.medium.config.airtime(frame.size_bytes)
            self.medium.sim.call_in(duration, self.on_transmission_finished, (frame,))
            return duration
        if self.transmitting:
            raise RuntimeError(f"node {self.node_id} radio is already transmitting")
        return self.medium.transmit(self, frame)

    def transmission_finished(self, frame: Frame) -> None:
        """Called by the medium when this radio's flight of ``frame`` ends."""
        self.transmitting = False
        self.on_transmission_finished(frame)

    def power_down(self) -> None:
        """Disable the radio (failure injection).

        The medium marks any in-flight copies heading for this radio as
        undecodable, so a dead radio stops influencing channel statistics.
        Idempotent.
        """
        if not self.enabled:
            return
        self.enabled = False
        self.medium.radio_powered_down(self)

    def power_up(self) -> None:
        """Re-enable the radio after a simulated failure.

        The radio rejoins the interference sets of in-flight transmissions
        (with corrupted copies -- it missed the heads of those frames).
        Idempotent.
        """
        if self.enabled:
            return
        self.enabled = True
        self.medium.radio_powered_up(self)
