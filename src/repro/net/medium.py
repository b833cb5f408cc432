"""The shared wireless medium.

The medium implements a unit-disk propagation model with collisions:

* A frame transmitted by node ``S`` occupies the channel for
  ``RadioConfig.airtime(size)`` seconds.
* Every node within the *transmission range* of ``S`` senses the channel as
  busy for that interval, and receives the frame at the end of it **unless**
  the reception was corrupted, which happens when (a) another sensed
  transmission overlapped in time at that receiver, or (b) the receiver was
  itself transmitting (half-duplex radio).  The radio has this one range:
  nothing is sensed farther away than it can be received.

This is the behaviour the paper depends on: finite bandwidth, spatial reuse,
and congestion-induced loss.

Snapshot semantics
------------------
All geometry of a transmission is evaluated **once, at transmission start**:
the set of radios in range (the interference set) is frozen from the
start-time positions.  Carrier sense (``Phy.carrier_busy``) is membership in
that frozen interference set -- a radio senses the channel busy exactly when it holds an in-flight
copy -- so the channel can never present two inconsistent geometries for the
same frame, no matter how nodes move during the airtime.

Powered-down radios (``Phy.enabled == False``, used for failure injection)
are invisible to the channel: they appear in no interference set, receive no
frames, report an idle carrier and are excluded from ``neighbors_of``.  A
radio that powers up (or registers) while frames are in flight joins their
interference sets with corrupted copies -- it missed the head of each frame,
so it senses energy but can never decode.

Spatial index
-------------
Candidate receivers/interferers come from the spatial index of
:mod:`repro.net.spatial`: a uniform grid over memoised positions, O(k) per
transmission.  The O(N) linear scan
it is proven bit-identical against is a test oracle
(``tests/net/reference_medium.py``), not an option.

The medium consumes one interface for static and moving senders alike:
``transmission_window`` resolves the sender's kinetic interference window --
every candidate with its verdict, each cached until the exact instant the
pair's linear motion next brings it to the range boundary (see the mobility
``segment`` contract) -- and returns the sender's *interference list*: the
enabled radios within range.  The
list is **frozen** -- the index never mutates one it has handed out, it
builds a new one when a verdict flips, the candidate set is rebuilt or a
radio's power state changes (the medium tells it) -- so a flight keeps a
reference for its airtime and most flights of a sender share one object.

Reception bookkeeping
---------------------
A paper-scale run starts tens of thousands of transmissions, each fanning
out to every radio in range, so the per-reception bookkeeping
is the dominant hot path.  It keeps one reception record per *radio*, not
per copy.  Every corruption event at a radio (overlapping energy, the radio
starting to transmit, its power-down) corrupts *all* copies it currently
holds, never a single one; and a copy is decodable only if it arrived on a
radio that held nothing and was not transmitting.  So **a radio holds at
most one decodable copy** -- the invariant this design rests on, asserted
in ``tests/properties/test_medium_equivalence.py`` on the per-copy oracle
(``PerCopyMedium`` in ``tests/net/reference_medium.py``: one record per
in-flight copy, against which this medium is proven bit-identical on the
hot-path goldens, failure injection and exact end-instant ties included).
A radio's whole reception state is two fields.  ``Phy.rx_busy_until`` is
the latest end over the copies it was given: it holds energy iff that lies
in the future, and at equality iff a flight ending *now* that lists it is
still in ``_active`` -- a launch at a flight's end instant may run before
its teardown (and collide with it) or after.  ``Phy.rx_current`` is the
flight it is locked on, or ``None``: "copy is intact" is ``rx_current is
batch``, "all this radio hears is lost" is ``rx_current = None``, and a
crashing sender clears the pointer on the radios locked on its flight.

Each :class:`ReceptionBatch` holds the shared frame, *borrows* the frozen
interference list, and counts its own locks (``locked``: set at launch, one
less per lock that breaks, zero on truncation).  Ownership: the list
belongs to the index, a flight only reads it and drops its reference at
teardown; radios that join mid-flight (late register, power-up) go on the
batch's own ``late`` side list, never on the borrowed one.  The fan-out is
one walk of the list with no per-copy record, append or link.  So is the
teardown of a broadcast, and of any flight the counters cannot decide.  A
*unicast* flight with no late copy, no power change since its launch and
every radio filtering unicast is decided by its counters: ``deliveries += locked`` and one dispatch to the addressee if it
is still locked, O(1) for all its copies.  The radios it does not visit
keep pointing at it; a pointer at a ``done`` flight reads as no lock (the
radio's next transmission counts no loss for it, its next arrival finds it
idle and relocks it), which is why a batch is never reused.  This relies on
the addressee's receive path changing no power state and starting no
flight before it returns -- the MAC defers everything it sends by at least
SIFS.  The sender's own position is known only on demand
(``ReceptionBatch.sender_pos``): a flight on a cached window samples no
position at all, and the late attach that needs it asks the index for the
sender's position at the flight's start -- a position is a function of
time, so the answer is the one an eager sample would have given.

Delivery has its own fast paths.  A receiver's MAC opts in to
medium-side unicast filtering (``Phy.unicast_filter`` -- copies of unicast
frames addressed elsewhere are counted but never dispatched) and lends the
radio its node's *broadcast route* (``Phy.broadcast_route``): the node's
receive table as data, which the teardown runs itself for ordinary broadcast
copies -- count the delivery for the MAC, note the sender as heard, one
``dict.get`` for the packet type's receiver -- with no MAC or node frame in
between; anything else takes ``Phy.receive_callback``.  What the table holds
for a type is its one receiver: its handler, called once, or, for a type
received into a *mailbox* (see :mod:`repro.net.node`; AODV's HELLOs), the
mailbox dict itself: the copy is then one store, ``mailbox[sender] =
(packet, now)``, the tuple built once per flight, and no Python frame at all.
Telling the two apart is one class test per decoded copy, and a type nothing
receives holds ``False``, which a truth test skips.  ``_finish_batch``
inlines the broadcast route per flight; ``_dispatch`` is the whole decision
per copy, shared with the late-foreign path (and the per-copy oracle).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.config import RadioConfig
from repro.net.packet import Frame
from repro.net.spatial import UniformGridIndex
from repro.obs import NULL_OBS
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.phy import Phy


class MediumStats:
    """Aggregate channel statistics."""

    def __init__(self) -> None:
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        #: Always zero since the radio has one range; kept because stored
        #: records and the pinned digests carry the field.
        self.out_of_range_discards = 0
        self.half_duplex_losses = 0
        self.disabled_discards = 0


class ReceptionBatch:
    """One in-flight transmission and the radios it reaches.

    Slotted, built by :meth:`Medium._launch` (which sets every field, with
    no ``__init__`` frame) and never reused: a radio's lock pointer may
    outlive the flight it names, so a batch is not recycled; it reads as no
    lock once the flight is :attr:`done`.  It owns no per-copy storage.

    ``sender``, ``frame``, ``start_time``, ``end_time``
        The flight itself.
    ``sender_pos``
        The sender's position at ``start_time``, known only on demand: a
        local flight leaves it ``None`` until a late attach (or the
        cross-shard export) asks; a foreign flight arrives with it.
    ``reach``
        Every radio holding a copy since the start of the flight: the
        sender's frozen interference list, *borrowed* from the spatial index
        for the airtime (see ``transmission_window``) and never mutated by
        anyone.
    ``late``
        Every radio that registered or powered up
        mid-flight (it missed the head of the frame, so it can never decode
        it); ``None`` on all but such flights.
    ``locked``
        How many radios are locked on the flight (``rx_current is batch``):
        set at launch, one less per lock that breaks -- a collision, the
        receiver starting to transmit, its power-down -- and zero once the
        sender is truncated.
    ``done``
        Set by the teardown; from then on no lock pointer at it counts.
    ``active_slot``
        Index in ``Medium._active`` (intrusive membership, O(1) removal).
    """

    __slots__ = ("sender", "frame", "start_time", "end_time", "sender_pos",
                 "reach", "late", "locked", "done", "active_slot")

    def copies(self) -> list:
        """Every radio holding a copy of the frame, late ones last."""
        return self.reach if self.late is None else self.reach + self.late


class _ForeignSender:
    """Stand-in sender for a transmission imported from another shard.

    Cross-shard records carry only the sender's node id and start-time
    position; the real :class:`~repro.net.phy.Phy` lives in the originating
    worker.  The stub satisfies the slice of the sender interface the batch
    teardown touches -- identity comparisons against local radios always
    fail (so power transitions and late attaches never mistake it for a
    local sender) and the end-of-flight notification is a no-op (the
    originating shard runs the real MAC state machine).
    """

    __slots__ = ("node_id", "shard")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.shard = 0

    def transmission_finished(self, frame: Frame) -> None:
        return None


class Medium:
    """The single shared wireless channel used by every node."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[RadioConfig] = None,
        obs=None,
        index_membership=None,
    ):
        self.sim = sim
        self.config = config or RadioConfig()
        self.stats = MediumStats()
        #: Delivery routing under the region-sharded sequential engine: with
        #: more than one shard configured *and* a sharded simulator driving
        #: the run, every delivery callback executes in the receiving
        #: radio's home-shard calendar (and the end-of-flight notification
        #: in the sender's).  ``None`` -- the common case -- costs one local
        #: ``is not None`` test per delivery.
        self._set_shard = (
            sim.set_shard if self.config.shards > 1 and sim.is_sharded else None
        )
        #: Cross-shard export mailbox (parallel shard workers only; see
        #: :mod:`repro.sim.shard`).  ``None`` keeps the hot path untouched;
        #: :meth:`enable_export` arms it, after which every transmission
        #: start and radio power-down appends one record.
        self._export: Optional[list] = None
        #: Counters of the foreign-record machinery (zero outside parallel
        #: shard workers); folded into the run's shard statistics.
        self.foreign_stats = {
            "attached": 0,
            "late_deliveries": 0,
            "truncated": 0,
            "sender_downs": 0,
        }
        #: Observability binding (see :mod:`repro.obs`).  Defaults to the
        #: shared ``NULL_OBS``, the one obs layer switched off; probe sites
        #: below are additionally gated on one cached bool so the disabled
        #: hot path pays nothing.
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        self._h_fanout = self.obs.histogram("medium.channel.fanout", reservoir=True)
        self._span_fanout = self.obs.span("medium.fanout")
        self._span_teardown = self.obs.span("medium.teardown")
        #: sender node_id -> total receptions fanned out (enabled mode only;
        #: feeds the report's top-N fan-out offenders).
        self._fanout_totals: Dict[int, int] = {}
        self._phys: Dict[int, "Phy"] = {}
        #: In-flight transmissions.
        self._active: List[ReceptionBatch] = []
        self._airtime = self.config.airtime
        #: Frame size -> ``RadioConfig.airtime`` of it (the same float): a
        #: flight reads its airtime with one dict lookup.
        self._airtimes: Dict[int, float] = {}
        self._range = self.config.transmission_range_m
        #: Registered radios whose MAC does not filter unicast frames
        #: addressed elsewhere (kept by ``Phy.unicast_filter``).
        self._unfiltered = 0
        #: Last instant a radio powered down or up.
        self._power_changed_at = -math.inf
        self._index = UniformGridIndex(
            cell_m=self.config.grid_cell_m,
            slack_m=self.config.grid_slack_m,
            membership=index_membership,
        )

    # --------------------------------------------------------------- registry
    def register(self, phy: "Phy") -> None:
        """Attach a radio to the channel.

        Registering while frames are in flight is safe: the late joiner is
        attached to every transmission it can sense (with corrupted copies --
        it missed the heads of those frames) so carrier sense and collision
        accounting stay consistent with the snapshot semantics.
        """
        if phy.node_id in self._phys:
            raise ValueError(f"node {phy.node_id} already registered on this medium")
        self._phys[phy.node_id] = phy
        if not phy.unicast_filter:
            self._unfiltered += 1
        self._index.add(phy)
        mobility = getattr(phy.node, "mobility", None)
        subscribe = getattr(mobility, "add_position_listener", None)
        if subscribe is not None:
            subscribe(lambda node_id=phy.node_id: self.positions_changed(node_id))
        if phy.enabled:
            self._attach_to_active(phy)

    def unicast_filter_changed(self, filters: bool) -> None:
        """A registered radio's ``Phy.unicast_filter`` was switched."""
        self._unfiltered += -1 if filters else 1

    @property
    def spatial_index(self):
        """The medium's spatial index (read-only use: telemetry, censuses)."""
        return self._index

    def positions_changed(self, node_id: Optional[int] = None) -> None:
        """Invalidate cached geometry after a non-analytic position change.

        Mobility models that can teleport report jumps automatically through
        their position listeners; call this manually only when positions are
        mutated behind the mobility interface (e.g. ad-hoc test stubs).
        A jump is the one break in "a position is a function of time", so
        the jumper's flights still on the air pin their start position
        first, while the index still remembers it.
        """
        index = self._index
        for batch in self._active:
            if batch.sender_pos is None and node_id in (None, batch.sender.node_id):
                batch.sender_pos = index.exact(batch.sender, batch.start_time)
        index.invalidate(node_id)

    # --------------------------------------------------------------- geometry
    def distance_between(self, node_a: int, node_b: int) -> float:
        """Current distance between two nodes."""
        now = self.sim.now
        index = self._index
        ax, ay = index.exact(self._phys[node_a], now)
        bx, by = index.exact(self._phys[node_b], now)
        return math.hypot(ax - bx, ay - by)

    def neighbors_of(self, node_id: int) -> List[int]:
        """Enabled node ids currently within transmission range of ``node_id``.

        Powered-down radios neither have neighbours nor appear as one.
        """
        phy = self._phys[node_id]
        if not phy.enabled:
            return []
        now = self.sim.now
        limit = self._range
        limit_sq = limit * limit
        index = self._index
        origin = index.exact(phy, now)
        ox, oy = origin
        result = []
        for _, _, other in index.candidates(origin, limit, now):
            if other is phy or not other.enabled:
                continue
            px, py = index.exact(other, now)
            dx = px - ox
            dy = py - oy
            if dx * dx + dy * dy <= limit_sq:
                result.append(other.node_id)
        return sorted(result)

    # -------------------------------------------------------------- fan-out
    def _transmit_batch(self, sender: "Phy", frame: Frame) -> float:
        """Start transmitting ``frame`` from ``sender``.

        Returns the airtime of the frame.  Reception outcomes are resolved
        when the transmission ends; all geometry is frozen now, at start.
        """
        obs_on = self._obs_on
        if obs_on:
            self._span_fanout.start()
        now = self.sim.now
        size = frame.packet.size_bytes + frame.header_bytes
        duration = self._airtimes.get(size)
        if duration is None:
            duration = self._airtimes[size] = self._airtime(size)
        end_time = now + duration
        sender.transmitting = True
        stats = self.stats
        stats.transmissions += 1
        # A node that starts transmitting loses the frame it was receiving.
        current = sender.rx_current
        if current is not None:
            if not current.done:
                stats.half_duplex_losses += 1
                current.locked -= 1
            sender.rx_current = None
        # No position is sampled here: the window knows when it needs one.
        reach = self._index.transmission_window(sender, self._range, now)
        batch = self._launch(sender, frame, end_time, None, reach)
        self.sim.call_in(duration, self._finish_batch, (batch,))
        if self._export is not None:
            sx, sy = batch.sender_pos = self._index.exact(sender, now)
            self._export.append(("tx", now, sender.node_id, end_time, sx, sy, frame))
        if obs_on:
            count = len(reach)
            self._h_fanout.observe(count)
            totals = self._fanout_totals
            sender_id = sender.node_id
            totals[sender_id] = totals.get(sender_id, 0) + count
            self._span_fanout.stop()
        return duration

    #: The public entry point.  An alias, not a rename: the benchmark's
    #: profiler attributes medium time by the function names above and below.
    transmit = _transmit_batch

    def _launch(self, sender, frame: Frame, end_time: float,
                sender_pos: Optional[tuple], reach: list) -> ReceptionBatch:
        """Put a flight on the air at every radio in ``reach``.

        Shared by local transmissions (``sender_pos`` ``None``: known on
        demand) and attached foreign ones.  Per radio:
        a copy arriving on top of held energy is lost and kills the one the
        radio was locked on, a copy arriving while the radio transmits is
        lost, and any other copy finds the radio idle and locks it.
        """
        now = self.sim.now
        batch = object.__new__(ReceptionBatch)  # every slot is set below
        batch.sender = sender
        batch.frame = frame
        batch.start_time = now
        batch.end_time = end_time
        batch.sender_pos = sender_pos
        batch.reach = reach
        batch.late = None
        batch.done = False
        collisions = 0
        half_duplex = 0
        locked = 0
        for phy in reach:
            busy = phy.rx_busy_until
            if busy > now or (busy == now and self._holds_ending_flight(phy, now)):
                # ``current`` is never a finished flight here: a radio left
                # pointing at one finds its next arrival with nothing else
                # on the air and re-locks, unless its own transmission or
                # power-down cleared the pointer first.
                current = phy.rx_current
                if current is not None:
                    collisions += 2
                    current.locked -= 1
                    phy.rx_current = None
                else:
                    collisions += 1
                if phy.transmitting:
                    half_duplex += 1
            elif phy.transmitting:
                half_duplex += 1
            else:
                phy.rx_current = batch
                locked += 1
            if end_time > busy:
                phy.rx_busy_until = end_time
        batch.locked = locked
        stats = self.stats
        if collisions:
            stats.collisions += collisions
        if half_duplex:
            stats.half_duplex_losses += half_duplex
        batch.active_slot = len(self._active)
        self._active.append(batch)
        return batch

    def _holds_ending_flight(self, phy: "Phy", now: float) -> bool:
        """Does ``phy``, whose watermark is exactly ``now``, still hold
        energy?  Only if a flight ending now has not been torn down yet and
        lists it: a launch at a flight's end instant may run before or
        after that flight's teardown, and sees its energy only before."""
        for batch in self._active:
            if batch.end_time == now:
                for holder in batch.copies():
                    if holder is phy:
                        return True
        return False

    def _finish_batch(self, batch: ReceptionBatch) -> None:
        obs_on = self._obs_on
        if obs_on:
            self._span_teardown.start()
        # O(1) intrusive removal from the in-flight list.
        active = self._active
        tail = active.pop()
        if tail is not batch:
            slot = batch.active_slot
            active[slot] = tail
            tail.active_slot = slot
        batch.done = True
        stats = self.stats
        frame = batch.frame
        sender = batch.sender
        sender_id = sender.node_id
        dst = frame.dst
        unicast = dst != BROADCAST_ADDRESS
        set_shard = self._set_shard
        if (
            unicast
            and batch.late is None
            and not self._unfiltered
            and self._power_changed_at < batch.start_time
        ):
            # The counters decide every copy.  No late copy and no power
            # change since launch: each radio still locked is a delivery to
            # an enabled radio that is not transmitting, and no other copy
            # counts anywhere.  Every radio filters unicast, so only the
            # addressee's copy is read; the others keep pointing here and
            # read as unlocked (``done``).
            stats.deliveries += batch.locked
            receiver = self._phys.get(dst)
            if receiver is not None and receiver.rx_current is batch:
                callback = receiver.receive_callback
                if callback is not None:
                    if set_shard is not None:
                        set_shard(receiver.shard)
                    callback(frame, sender_id)
        else:
            packet = frame.packet
            packet_type = type(packet)
            now = self.sim.now
            # What a receiver's mailbox for this packet type holds per sender.
            receipt = (packet, now)
            # Ordinary broadcast traffic (everything but a broadcast MAC
            # ACK, which no stack sends but tests may craft) runs the
            # receivers' lent broadcast routes right here, the ``_dispatch``
            # decision inlined.
            routed = not unicast and not packet.is_mac_control
            disabled_discards = 0
            half_duplex = 0
            deliveries = 0
            # ``rx_current`` is read per copy, at visit time, so a callback
            # that powers a radio down mid-teardown is seen by the copies
            # still pending -- exactly like the per-copy oracle's per-record
            # reads.  The copies are ``ReceptionBatch.copies()``, spelled out.
            late = batch.late
            for receiver in batch.reach if late is None else batch.reach + late:
                if receiver.rx_current is not batch:
                    # Not the flight this radio is locked on: undecodable.
                    if not receiver.enabled:
                        disabled_discards += 1
                    continue
                receiver.rx_current = None
                if not receiver.enabled:
                    disabled_discards += 1
                    continue
                if receiver.transmitting:
                    half_duplex += 1
                    continue
                deliveries += 1
                if routed:
                    route = receiver.broadcast_route
                    if route is not None:
                        if set_shard is not None:
                            # Sharded engine: whatever the receiver schedules
                            # lands in the receiving radio's home-shard
                            # calendar.
                            set_shard(receiver.shard)
                        receivers, resolve, mac_stats, heard = route
                        mac_stats.delivered_to_upper += 1
                        heard[sender_id] = now
                        upper = receivers.get(packet_type)
                        if upper is None:
                            upper = resolve(packet_type)
                        if upper.__class__ is dict:
                            upper[sender_id] = receipt
                        elif upper:
                            upper(packet, sender_id)
                        continue
                elif unicast and receiver.unicast_filter and dst != receiver.node_id:
                    # The copy arrived intact (counted above) but the MAC
                    # would discard it unread -- skip the dispatch entirely.
                    continue
                # Addressed unicast, link-layer control, or no route lent.
                self._dispatch(receiver, frame, sender_id)
            if disabled_discards:
                stats.disabled_discards += disabled_discards
            if half_duplex:
                stats.half_duplex_losses += half_duplex
            stats.deliveries += deliveries
        # The batch gives its lists back: it pins no radio and no window.
        batch.reach = None
        batch.late = None
        batch.sender = None
        batch.frame = None
        if set_shard is not None:
            set_shard(sender.shard)
        sender.transmission_finished(frame)
        if obs_on:
            # Includes upper-layer dispatch and the sender's MAC hook: the
            # span covers everything a frame's end-of-airtime costs, which
            # is what the phase breakdown is for.
            self._span_teardown.stop()

    def _dispatch(self, receiver: "Phy", frame: Frame, sender_id: int) -> None:
        """Hand one decoded copy to ``receiver``'s stack: a unicast copy
        addressed elsewhere is dropped where the MAC filters, an ordinary
        broadcast runs the lent route (unguarded: a radio is never on its own
        interference list), the rest takes ``receive_callback``."""
        dst = frame.dst
        if dst != BROADCAST_ADDRESS and receiver.unicast_filter and dst != receiver.node_id:
            return
        if self._set_shard is not None:
            self._set_shard(receiver.shard)
        packet = frame.packet
        route = receiver.broadcast_route
        if route is not None and dst == BROADCAST_ADDRESS and not packet.is_mac_control:
            receivers, resolve, mac_stats, heard = route
            mac_stats.delivered_to_upper += 1
            now = self.sim.now
            heard[sender_id] = now
            upper = receivers.get(type(packet))
            if upper is None:
                upper = resolve(type(packet))
            if upper.__class__ is dict:
                upper[sender_id] = (packet, now)
            elif upper:
                upper(packet, sender_id)
        elif receiver.receive_callback is not None:
            receiver.receive_callback(frame, sender_id)

    # ------------------------------------------------------- power transitions
    def radio_powered_down(self, phy: "Phy") -> None:
        """A radio went down mid-flight: it stops receiving *and* radiating.

        Its pending incoming copies can never decode, and any transmission it
        had on the air is truncated, so every receiver's copy of that frame
        is undecodable too.  All copies are marked corrupted without counting
        a collision: a dead radio stops inflating ``deliveries`` and
        ``collisions``.
        """
        now = self._power_changed_at = self.sim.now
        self._index.power_changed()
        if self._export is not None:
            # Tell the other shards: their copies of any frame this radio
            # still had on the air are truncated too.
            self._export.append(("down", now, phy.node_id))
        current = phy.rx_current
        if current is not None:
            if not current.done:
                current.locked -= 1
            phy.rx_current = None
        for batch in self._active:
            if batch.sender is phy and batch.end_time > now:
                self._truncate(batch)

    @staticmethod
    def _truncate(batch: ReceptionBatch) -> None:
        """The sender of ``batch`` crashed: no radio locked on it decodes it.

        Late copies never lock a radio, so :attr:`ReceptionBatch.reach` is
        all there is to walk.
        """
        for receiver in batch.reach:
            if receiver.rx_current is batch:
                receiver.rx_current = None
        batch.locked = 0

    def radio_powered_up(self, phy: "Phy") -> None:
        """A radio came (back) up: attach it to every in-flight transmission."""
        self._power_changed_at = self.sim.now
        self._index.power_changed()
        self._attach_to_active(phy)

    def _attach_to_active(self, phy: "Phy") -> None:
        """Give ``phy`` corrupted copies of every transmission it can sense.

        Used for radios that register or power up mid-flight: they missed
        the head of each frame, so they sense energy (and participate in
        collision bookkeeping) but can never decode the frame itself.
        """
        if not self._active:
            return
        now = self.sim.now
        position = self._index.exact(phy, now)
        range_sq = self._range * self._range
        for batch in self._active:
            if batch.sender is phy or batch.end_time <= now:
                continue
            # A power cycle inside one airtime must not attach a second
            # copy of a transmission the radio already holds (from before
            # it went down) -- duplicates would double-count the discard
            # statistics.
            if any(holder is phy for holder in batch.copies()):
                continue
            if batch.sender_pos is None:  # known on demand: see the module docstring
                batch.sender_pos = self._index.exact(batch.sender, batch.start_time)
            sx, sy = batch.sender_pos
            dx = sx - position[0]
            dy = sy - position[1]
            if dx * dx + dy * dy > range_sq:
                continue
            if batch.late is None:
                batch.late = []
            batch.late.append(phy)
            if batch.end_time > phy.rx_busy_until:
                phy.rx_busy_until = batch.end_time

    # ------------------------------------------------- cross-shard mailboxes
    # The parallel region-sharded engine (see :mod:`repro.sim.shard`) runs
    # one full scenario per shard with foreign radios disabled.  Each worker
    # exports a record per transmission start ("tx") and per radio crash
    # ("down"); at every conservative sync boundary the driver redistributes
    # the records and each worker applies the foreign ones here.  A foreign
    # transmission still in flight joins the local collision machinery
    # exactly like a local one (snapshot semantics, with geometry evaluated
    # at apply time); one that already ended -- the common case whenever the
    # sync window exceeds an airtime -- is delivered directly ("late"),
    # skipping interference it can no longer physically cause.  This is the
    # documented approximation of the parallel modes; the sequential sharded
    # engine needs none of it and stays bit-exact.

    def enable_export(self) -> None:
        """Arm the cross-shard export mailbox (parallel shard workers)."""
        if self._export is None:
            self._export = []

    def drain_export(self) -> list:
        """Return and clear the records accumulated since the last drain."""
        records = self._export
        if records is None:
            return []
        self._export = []
        return records

    def apply_foreign_records(self, records: list) -> None:
        """Apply one sync window's worth of other shards' channel records.

        ``records`` must arrive sorted by ``(time, node_id, tag)`` -- the
        driver sorts the union of all foreign outboxes, so every worker
        applies the same records in the same order (this is what makes the
        in-process and multi-process parallel modes bit-identical).
        """
        now = self.sim.now
        downs: Dict[int, list] = {}
        for record in records:
            if record[0] == "down":
                downs.setdefault(record[2], []).append(record[1])
        foreign = self.foreign_stats
        for record in records:
            if record[0] == "tx":
                _, start, sender_id, end_time, sx, sy, frame = record
                if end_time > now:
                    self.attach_foreign(sender_id, end_time, sx, sy, frame)
                    foreign["attached"] += 1
                elif any(start < at < end_time for at in downs.get(sender_id, ())):
                    # The sender crashed mid-flight: the frame was truncated
                    # everywhere, including here.
                    foreign["truncated"] += 1
                else:
                    self._deliver_foreign_late(sender_id, sx, sy, frame)
                    foreign["late_deliveries"] += 1
            else:
                self.foreign_sender_down(record[2])
                foreign["sender_downs"] += 1

    def attach_foreign(
        self, sender_id: int, end_time: float, sx: float, sy: float, frame: Frame
    ) -> None:
        """Attach a still-in-flight foreign transmission to local radios.

        The flight's reach is built here, once, from the local index's
        candidates around the exported start position; from there it is an
        ordinary flight (:meth:`_launch`, then the shared
        ``_finish_batch`` teardown at ``end_time``).  The transmission
        itself is *not* counted -- the originating shard owns
        ``stats.transmissions``.
        """
        now = self.sim.now
        index = self._index
        range_m = self._range
        range_sq = range_m * range_m
        reach = []
        for _, _, phy in index.candidates((sx, sy), range_m, now):
            if not phy.enabled:
                continue
            px, py = index.exact(phy, now)
            dx = px - sx
            dy = py - sy
            if dx * dx + dy * dy <= range_sq:
                reach.append(phy)
        batch = self._launch(_ForeignSender(sender_id), frame, end_time, (sx, sy), reach)
        self.sim.call_at(end_time, self._finish_batch, (batch,))

    def _deliver_foreign_late(
        self, sender_id: int, sx: float, sy: float, frame: Frame
    ) -> None:
        """Deliver a foreign transmission that ended before this boundary.

        The frame's airtime lies entirely in the past, so it can no longer
        occupy the channel or collide with anything local; receivers in
        transmission range of the exported start position simply receive it
        now, through the same :meth:`_dispatch` as a live teardown.
        """
        now = self.sim.now
        index = self._index
        range_m = self._range
        range_sq = range_m * range_m
        half_duplex = 0
        deliveries = 0
        for _, _, receiver in index.candidates((sx, sy), range_m, now):
            if not receiver.enabled:
                continue
            px, py = index.exact(receiver, now)
            dx = px - sx
            dy = py - sy
            if dx * dx + dy * dy > range_sq:
                continue
            if receiver.transmitting:
                half_duplex += 1
                continue
            deliveries += 1
            self._dispatch(receiver, frame, sender_id)
        stats = self.stats
        if half_duplex:
            stats.half_duplex_losses += half_duplex
        stats.deliveries += deliveries

    def foreign_sender_down(self, sender_id: int) -> None:
        """A foreign sender crashed: truncate its in-flight attached frames.

        The local mirror of the sender-crash branch of
        :meth:`radio_powered_down`, keyed by node id because the sender's
        radio object lives in another worker.
        """
        now = self.sim.now
        for batch in self._active:
            sender = batch.sender
            if (
                type(sender) is _ForeignSender
                and sender.node_id == sender_id
                and batch.end_time > now
            ):
                self._truncate(batch)

    # --------------------------------------------------------------- telemetry
    def receptions_for(self, node_id: int) -> List[tuple]:
        """In-flight copies heading for ``node_id``.

        Returns ``(sender_id, end_time, corrupted)`` tuples -- the
        stable view for tests and tools over the per-radio reception record
        underneath.  Tuple order is unspecified.
        """
        phy = self._phys.get(node_id)
        return [
            (batch.sender.node_id, batch.end_time, phy.rx_current is not batch)
            for batch in self._active
            for holder in batch.copies()
            if holder is phy
        ]

    def top_fanout(self, n: int) -> List[tuple]:
        """Worst fan-out offenders: ``(sender, total receptions)``, top ``n``.

        Tracked only while observability is enabled; empty otherwise.
        """
        return sorted(
            self._fanout_totals.items(), key=lambda item: (-item[1], item[0])
        )[:n]

    def publish_index_metrics(self) -> None:
        """Copy the spatial index's counters into the ``spatial.index.*``
        telemetry names (no-op with observability disabled)."""
        if not self._obs_on:
            return
        index = self._index
        self.obs.registry.set_metrics(
            [
                ("spatial.index.window_hits", index.window_hits),
                ("spatial.index.window_builds", index.window_builds),
                ("spatial.index.window_resolves", index.window_resolves),
                ("spatial.index.grid_rebuilds", index.grid_rebuilds),
            ]
        )
