"""Reception lifecycle edge cases.

The medium keeps no per-copy reception records: a flight borrows its
sender's frozen interference list from the spatial index and each radio
records the one flight it can still decode (``Phy.rx_current``;
see ``repro.net.medium``).  These tests pin the awkward corners of that
representation -- radios detaching from or attaching to *live* batches, a
transmitter crashing under its own batch, lock pointers outliving their
flight, and record consistency across those events -- and prove the per-copy oracle
(``"object"``: ``PerCopyMedium`` in ``tests/net/reference_medium.py``) agrees
on all of them.
Whole-scenario bit-identity (including failure injection) is pinned
separately in ``tests/properties/test_hotpath_equivalence.py``.
"""

import pytest

from repro.mobility.static import StaticMobility
from repro.net.config import RadioConfig
from repro.net.mac import MacAck
from repro.net.node import Node
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.routing.messages import HelloMessage
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.net.reference_medium import MEDIA

KERNELS = ("batch", "object")


class _StubNode:
    """A node at rest: with a real mobility model its sender windows (and
    their frozen interference lists) are cached from flight to flight."""

    def __init__(self, node_id, x, y):
        self.node_id = node_id
        self.mobility = StaticMobility(x, y)
        self.position = self.mobility.position


def _network(positions, kernel, range_m=100.0):
    sim = Simulator()
    medium = MEDIA[kernel](sim, RadioConfig(transmission_range_m=range_m))
    phys = []
    received = {}
    for node_id, (x, y) in enumerate(positions):
        phy = Phy(_StubNode(node_id, x, y), medium)
        received[node_id] = []
        phy.set_receive_callback(
            lambda frame, sender, nid=node_id: received[nid].append(
                (frame.packet.uid, sender)
            )
        )
        phys.append(phy)
    return sim, medium, phys, received


def _frame(src, dst, size=100):
    return Frame(
        src=src, dst=dst, packet=Packet(origin=src, destination=dst, size_bytes=size)
    )


def _run_failure_script(kernel):
    """A dense micro-scenario mixing collisions with failure injection."""
    positions = [(0, 0), (40, 0), (80, 0), (40, 30), (300, 300)]
    sim, medium, phys, received = _network(positions, kernel)
    d0 = phys[0].transmit(_frame(0, -1))
    # An overlapping transmission corrupts the first at shared receivers.
    sim.call_in(d0 / 4, phys[2].transmit, (_frame(2, -1),))
    sim.call_in(d0 / 3, phys[3].power_down, ())
    sim.call_in(d0 * 2, phys[3].power_up, ())
    sim.call_in(d0 * 3, phys[1].transmit, (_frame(1, -1),))
    sim.run()
    return sim, medium, phys, received


@pytest.mark.parametrize("kernel", KERNELS)
class TestMidFlightPowerDown:
    def test_receiver_power_down_detaches_from_live_batch(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        sim.call_in(duration / 2, phys[1].power_down, ())
        sim.run()
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.disabled_discards == 1
        assert medium.stats.collisions == 0

    def test_crashed_transmitter_truncates_its_own_batch(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0), (50, 40)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        sim.call_in(duration / 2, phys[0].power_down, ())
        sim.run()
        # The truncated frame decodes nowhere, without inflating loss stats.
        assert received[1] == [] and received[2] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.collisions == 0
        assert medium.stats.half_duplex_losses == 0

    def test_counters_stay_consistent_after_truncation(self, kernel):
        # Regression guard for the medium's per-radio counters: a
        # truncated copy must leave its receiver's uncorrupted count settled,
        # or the receiver's next transmission books a phantom half-duplex
        # loss for a frame that already ended.
        sim, medium, phys, received = _network([(0, 0), (50, 0), (50, 40)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        sim.call_in(duration / 2, phys[0].power_down, ())
        sim.run()
        phys[1].transmit(_frame(1, -1))
        sim.run()
        assert medium.stats.half_duplex_losses == 0
        assert [uid for uid, _ in received[2]] != []
        assert medium.stats.deliveries == 1

    def test_sender_crash_unlocks_every_receiver(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0), (50, 40)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}

        def crash():
            observed["before"] = [medium.receptions_for(nid) for nid in (1, 2)]
            phys[0].power_down()
            observed["after"] = [medium.receptions_for(nid) for nid in (1, 2)]

        sim.call_in(duration / 2, crash, ())
        sim.run(until=duration / 2)
        assert observed["before"] == [[(0, duration, False)]] * 2
        assert observed["after"] == [[(0, duration, True)]] * 2
        assert all(phy.rx_current is None for phy in phys)

    def test_power_down_inside_teardown_reaches_unvisited_copies(self, kernel):
        # Radio 1's delivery callback takes radio 2 down while the same
        # flight is being torn down: 2's copy has not been visited yet and
        # must be lost -- the record is read at visit time.
        sim, medium, phys, received = _network([(0, 0), (50, 0), (50, 40)], kernel)
        phys[1].set_receive_callback(lambda frame, sender: phys[2].power_down())
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert received[2] == []
        assert medium.stats.deliveries == 1
        assert medium.stats.disabled_discards == 1

    def test_interference_list_follows_power_state_between_flights(self, kernel):
        # The sender's frozen list is dropped, not patched, when a radio's
        # power state changes: a dark radio is in no later flight's list (it
        # costs the fan-out nothing) and is back after powering up.
        sim, medium, phys, received = _network([(0, 0), (50, 0), (50, 40)], kernel)
        phys[0].transmit(_frame(0, -1))
        sim.run()
        phys[1].power_down()
        duration = phys[0].transmit(_frame(0, -1))
        sim.run(until=sim.now + duration / 2)
        # The dark radio holds nothing: its watermark is the last flight's.
        assert medium.receptions_for(1) == [] and phys[1].rx_busy_until < sim.now
        sim.run()
        phys[1].power_up()
        phys[0].transmit(_frame(0, -1))
        sim.run()
        assert [len(received[nid]) for nid in (1, 2)] == [2, 3]
        assert medium.stats.deliveries == 5
        assert medium.stats.disabled_discards == 0


@pytest.mark.parametrize("kernel", KERNELS)
class TestMidFlightAttach:
    def test_power_up_mid_flight_attaches_corrupted_copy(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0)], kernel)
        phys[1].power_down()
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}

        def come_up():
            phys[1].power_up()
            observed["busy"] = phys[1].carrier_busy()
            observed["copies"] = medium.receptions_for(1)

        sim.call_in(duration / 2, come_up, ())
        sim.run()
        # It missed the head of the frame: senses energy, can never decode.
        assert observed["busy"] is True
        assert observed["copies"] == [(0, duration, True)]
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.collisions == 0

    @pytest.mark.parametrize("goes_dark_again, discards", [(False, 0), (True, 1)])
    def test_dark_at_start_gets_exactly_one_late_copy(
        self, kernel, goes_dark_again, discards
    ):
        # The late copy is booked once, as a disabled discard only if the
        # radio is dark again at the end, and never as a delivery or a
        # collision.
        sim, medium, phys, received = _network([(0, 0), (50, 0)], kernel)
        phys[1].power_down()
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}

        def come_up():
            observed["dark"] = medium.receptions_for(1)
            phys[1].power_up()
            observed["up"] = medium.receptions_for(1)

        sim.call_in(duration / 4, come_up, ())
        if goes_dark_again:
            sim.call_in(duration / 2, phys[1].power_down, ())
        sim.run()
        assert observed["dark"] == []
        assert observed["up"] == [(0, duration, True)]
        assert received[1] == []
        stats = medium.stats
        assert stats.disabled_discards == discards
        assert (stats.deliveries, stats.collisions, stats.half_duplex_losses) == (0, 0, 0)

    def test_late_register_attaches_corrupted_copy(self, kernel):
        sim, medium, phys, received = _network([(0, 0)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}

        def join():
            phy = Phy(_StubNode(1, 50, 0), medium)
            phy.set_receive_callback(
                lambda frame, sender: received.setdefault(1, []).append(sender)
            )
            observed["busy"] = phy.carrier_busy()
            observed["copies"] = medium.receptions_for(1)

        sim.call_in(duration / 2, join, ())
        sim.run()
        assert observed["busy"] is True
        assert observed["copies"] == [(0, duration, True)]
        assert received.get(1, []) == []
        assert medium.stats.deliveries == 0

    def test_power_cycle_within_one_airtime_attaches_no_duplicate(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}

        def cycle():
            phys[1].power_down()
            phys[1].power_up()
            observed["copies"] = medium.receptions_for(1)

        sim.call_in(duration / 2, cycle, ())
        sim.run()
        # The radio already held (a now-corrupted copy of) this frame; the
        # power cycle must not attach a second one and double the discard
        # accounting.
        assert observed["copies"] == [(0, duration, True)]
        assert medium.receptions_for(1) == []
        assert received[1] == []
        assert medium.stats.deliveries == 0
        assert medium.stats.disabled_discards == 0


@pytest.mark.parametrize("kernel", KERNELS)
class TestFinishedFlights:
    def test_a_finished_flight_reads_done_and_decodes_nowhere_after(self, kernel):
        # Radio 3 locks on flight A, flight B (longer) collides with it, A
        # ends; flight C starts while 3 still holds B.  A finished flight is
        # never reused: it reads ``done`` and has let go of its lists, and
        # nothing of it may make C decodable.
        sim, medium, phys, received = _network([(0, 0), (10, 0), (20, 0), (30, 20)], kernel)
        flights = {}

        def start(sender, size):
            phys[sender].transmit(_frame(sender, -1, size))
            flights[sender] = next(f for f in medium._active if f.sender is phys[sender])

        start(0, 100)
        sim.call_in(1e-5, start, (1, 1500))
        sim.run(until=flights[0].end_time)
        if kernel == "batch":  # the oracle's flights carry no such flags
            assert flights[0].done and flights[0].reach is None
            assert not flights[1].done
        start(2, 100)
        assert flights[2] is not flights[0]
        assert medium.receptions_for(3) != []
        sim.run()
        assert received[3] == []
        assert medium.stats.deliveries == 0

    def test_drained_calendar_leaves_no_reception_state(self, kernel):
        sim, medium, phys, received = _run_failure_script(kernel)
        assert medium._active == []
        for phy in phys:
            assert phy.rx_current is None and not phy.carrier_busy()
            assert medium.receptions_for(phy.node_id) == []


class TestUnicastTeardown:
    """A unicast flight on a quiet channel is decided by its counters: the
    teardown reads the addressee's copy and leaves every other radio
    unvisited, still pointing at the finished flight -- which reads as no
    lock from then on."""

    def _quiet_unicast(self):
        sim, medium, phys, received = _network([(0, 0), (40, 0), (0, 40), (40, 40)], "batch")
        for phy in phys:
            phy.unicast_filter = True  # as every MAC sets it
        phys[0].transmit(_frame(0, 1))
        (flight,) = medium._active
        assert flight.locked == 3
        sim.run()
        return sim, medium, phys, received, flight

    def test_non_addressees_are_left_unvisited(self):
        sim, medium, phys, received, flight = self._quiet_unicast()
        assert flight.done and flight.reach is None
        assert [len(received[nid]) for nid in (1, 2, 3)] == [1, 0, 0]
        assert medium.stats.deliveries == 3
        # Radios 2 and 3 were never visited: their pointers were not reset.
        assert phys[2].rx_current is flight and phys[3].rx_current is flight

    def test_a_pointer_at_a_finished_flight_reads_as_unlocked(self):
        sim, medium, phys, received, flight = self._quiet_unicast()
        assert medium.receptions_for(2) == [] and not phys[2].carrier_busy()
        # Radio 2 starting to transmit loses nothing, and its next arrival
        # finds radio 3 idle: a clean delivery, no collision.
        phys[2].transmit(_frame(2, -1))
        sim.run()
        assert medium.stats.half_duplex_losses == 0
        assert medium.stats.collisions == 0
        assert [sender for _, sender in received[3]] == [2]
        # Powering a radio down over a finished flight's pointer unlocks
        # nothing that is live.
        phys[3].power_down()
        assert phys[3].rx_current is None and flight.locked == 3

    def test_a_collision_is_counted_off_the_flights_locks(self):
        sim, medium, phys, received = _network([(0, 0), (40, 0), (80, 0)], "batch")
        for phy in phys:
            phy.unicast_filter = True
        duration = phys[0].transmit(_frame(0, 1))
        (flight,) = medium._active
        sim.call_in(duration / 2, phys[2].transmit, (_frame(2, -1),))
        sim.run()
        # Radio 1 lost its lock to radio 2's flight; radio 2 to its own start.
        assert flight.locked == 0
        assert received[1] == [] and medium.stats.deliveries == 0


@pytest.mark.parametrize("kernel", ["batch", "naive"])
def test_overlapping_flights_keep_their_own_interference_lists(kernel):
    # Two senders out of each other's range, on the air at once,
    # with disjoint receiver sets.  A flight keeps its list for the whole
    # airtime, so an index that reused one list object would hand the first
    # flight's teardown the second flight's receivers.
    positions = [(0, 0), (30, 0), (0, 30), (1000, 0), (1030, 0), (1000, 30)]
    sim, medium, phys, received = _network(positions, kernel)
    duration = phys[0].transmit(_frame(0, -1))
    sim.call_in(duration / 2, phys[3].transmit, (_frame(3, -1),))
    sim.run()
    senders = {nid: [sender for _, sender in log] for nid, log in received.items()}
    assert senders == {0: [], 1: [0], 2: [0], 3: [], 4: [3], 5: [3]}
    assert vars(medium.stats) == dict(
        transmissions=2, deliveries=4, collisions=0, out_of_range_discards=0,
        half_duplex_losses=0, disabled_discards=0,
    )


class TestKernelAgreement:
    def test_kernels_bit_identical_under_failure_injection(self):
        _, medium_batch, _, received_batch = _run_failure_script("batch")
        _, medium_object, _, received_object = _run_failure_script("object")
        assert vars(medium_batch.stats) == vars(medium_object.stats)
        # uids differ between runs (process-global counter); compare shape.
        canonical = lambda log: {
            nid: [sender for _, sender in entries] for nid, entries in log.items()
        }
        assert canonical(received_batch) == canonical(received_object)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_receptions_for_view_is_kernel_independent(self, kernel):
        sim, medium, phys, received = _network([(0, 0), (50, 0), (80, 0)], kernel)
        duration = phys[0].transmit(_frame(0, -1))
        observed = {}
        sim.call_in(
            duration / 2,
            lambda: observed.update(
                {nid: sorted(medium.receptions_for(nid)) for nid in (0, 1, 2)}
            ),
            (),
        )
        sim.run()
        assert observed[0] == []
        assert observed[1] == [(0, duration, False)]
        assert observed[2] == [(0, duration, False)]


class TestDispatchAgreement:
    """One decision, three callers: the medium's teardown inlines it, the
    per-copy oracle's and the late-foreign path call ``Medium._dispatch``.
    On full ``Node`` stacks all three must hand the same ``(packet, sender)``
    sequence to the handlers and bump the same MAC counters."""

    #: (dst, packet class): ordinary broadcasts, an addressed and an overheard
    #: unicast, and a crafted broadcast of link-layer control.
    SCRIPT = [(-1, Packet), (1, Packet), (-1, MacAck), (2, Packet), (-1, Packet)]
    POSITIONS = {0: (0, 0), 1: (50, 0), 2: (0, 50)}

    def _stacks(self, kernel, node_ids):
        sim = Simulator()
        medium = MEDIA[kernel](sim, RadioConfig())
        streams = RandomStreams(3)
        log = []
        nodes = {}
        for node_id in node_ids:
            x, y = self.POSITIONS[node_id]
            node = nodes[node_id] = Node(node_id, sim, medium, StaticMobility(x, y), streams)
            node.register_handler(
                Packet, lambda packet, sender, nid=node_id: log.append((nid, packet.ttl, sender))
            )
        return sim, medium, nodes, log

    def _send_script(self, sim, sender_phy):
        # Sequential flights from node 0, spaced far beyond an airtime (and
        # beyond the receivers' ACKs); ``ttl`` numbers the packets.
        for index, (dst, kind) in enumerate(self.SCRIPT):
            frame = Frame(src=0, dst=dst, packet=kind(origin=0, destination=dst, ttl=index))
            sim.call_at(0.1 * (index + 1), sender_phy.transmit, (frame,))

    def _run_local(self, kernel):
        sim, medium, nodes, log = self._stacks(kernel, (0, 1, 2))
        self._send_script(sim, nodes[0].phy)
        sim.run()
        return log, {nid: vars(nodes[nid].mac.stats) for nid in (1, 2)}

    def _run_late_foreign(self):
        sim_a, medium_a, nodes_a, _ = self._stacks("batch", (0,))
        medium_a.enable_export()
        self._send_script(sim_a, nodes_a[0].phy)
        sim_a.run()
        sim_b, medium_b, nodes_b, log = self._stacks("batch", (1, 2))
        sim_b.run(until=1.0)  # the boundary: every flight is long over
        medium_b.apply_foreign_records(medium_a.drain_export())
        assert medium_b.foreign_stats["late_deliveries"] == len(self.SCRIPT)
        sim_b.run()  # the receivers' ACKs
        return log, {nid: vars(nodes_b[nid].mac.stats) for nid in (1, 2)}

    def test_both_kernels_and_the_late_foreign_path_agree(self):
        expected_log = [
            (1, 0, 0), (2, 0, 0),  # broadcast: both, registration order
            (1, 1, 0),             # unicast to 1 (2 overhears: filtered)
            (2, 3, 0),             # the broadcast MacAck (script index 2) reaches no handler
            (1, 4, 0), (2, 4, 0),
        ]
        batch_log, batch_stats = self._run_local("batch")
        assert batch_log == expected_log
        assert [batch_stats[n]["delivered_to_upper"] for n in (1, 2)] == [3, 3]
        assert [batch_stats[n]["acks_received"] for n in (1, 2)] == [1, 1]
        assert [batch_stats[n]["ack_transmissions"] for n in (1, 2)] == [1, 1]
        assert self._run_local("object") == (batch_log, batch_stats)
        assert self._run_late_foreign() == (batch_log, batch_stats)

    # ------------------------------------------------------------ mailboxes
    def _run_hellos(self, kernel, late_foreign=False):
        """Three HELLOs and a data packet from node 0 to a mailbox at 1 and a
        handler at 2; returns the mailbox and the ``(packet, time)`` copies
        the handler saw."""
        sim, medium, nodes, _ = self._stacks(kernel, (0,) if late_foreign else (0, 1, 2))
        for index, seq in enumerate((4, 4, None, 5)):
            packet = (Packet(origin=0, destination=-1) if seq is None
                      else HelloMessage(origin=0, destination=-1, seq=seq))
            frame = Frame(src=0, dst=-1, packet=packet)
            sim.call_at(0.1 * (index + 1), nodes[0].phy.transmit, (frame,))
        if late_foreign:
            medium.enable_export()
            sim.run()
            records = medium.drain_export()
            sim, medium, nodes, _ = self._stacks("batch", (1, 2))
        box, handled = {}, []
        nodes[1].register_mailbox(HelloMessage, box)
        nodes[2].register_handler(
            HelloMessage, lambda packet, sender: handled.append((packet, sim.now))
        )
        if late_foreign:
            sim.run(until=1.0)  # the boundary: every flight is long over
            medium.apply_foreign_records(records)
        else:
            sim.run()
        return box, handled

    def test_both_kernels_and_the_late_foreign_path_leave_equal_mailboxes(self):
        def seqs(handled):
            return [packet.seq for packet, _ in handled]

        box, handled = self._run_hellos("batch")
        assert list(box) == [0] and seqs(handled) == [4, 4, 5]
        # The mailbox holds the last copy the handler saw: same packet, same time.
        assert box[0] == handled[-1] and box[0][1] > 0.4
        object_box, object_handled = self._run_hellos("object")
        assert object_box[0][0].seq == 5 and seqs(object_handled) == seqs(handled)
        assert object_box[0][1] == box[0][1]
        assert [at for _, at in object_handled] == [at for _, at in handled]
        late_box, late_handled = self._run_hellos("batch", late_foreign=True)
        assert late_box[0] == late_handled[-1] and seqs(late_handled) == seqs(handled)
        # Received at the boundary, as the handlers on that path always were.
        assert late_box[0][1] == 1.0
