"""What one flight costs: its Python frames, and the positions it samples.

A flight from a moving sender on a cached kinetic window samples no
position at all: the sender's start position is known only on demand, and
the one reader that needs it -- a radio attaching mid-flight -- asks the
index for it late and must get what an eager sample would have given (the
per-copy oracle samples eagerly).
"""

import random

import pytest

from repro.mobility.base import RectangularArea
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.static import StaticMobility
from repro.mobility.trace import WaypointTraceMobility
from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.net.packet import Frame, Packet
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import python_calls
from tests.net.reference_medium import PerCopyMedium

#: Frames a flight must never enter again: the sender's position sample,
#: the per-flight size and airtime calls, the copies listing and the relay
#: frames between the radio and the MAC's state machine.
_GONE = ("exact", "segment", "_leg_at", "position", "size_bytes", "airtime",
         "copies", "_notify_finished", "_transmission_done", "_dequeue_next")

#: From ``Node.send_frame`` to the contention of the MAC's next frame.
_BROADCAST = [
    "send_frame", "send", "__init__", "__init__", "_start_contention", "call_in",
    "_attempt_transmission", "_transmit_batch", "transmission_window", "_launch",
    "call_in",
    "_finish_batch", "transmission_finished", "_frame_done",
]


class TestFrameBudget:
    """One flight of a moving sender on a window hit, frame by frame."""

    def _stacks(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig())
        mover = RandomWaypointMobility(
            RectangularArea(20.0, 20.0), random.Random(5),
            min_speed_mps=1.0, max_speed_mps=1.0, max_pause_s=0.0,
        )
        mobilities = [mover, StaticMobility(10.0, 0.0), StaticMobility(0.0, 10.0)]
        streams = RandomStreams(1)
        nodes = [Node(i, sim, medium, m, streams) for i, m in enumerate(mobilities)]
        return sim, medium, mover, nodes

    def _flight(self, dst):
        """Profile the second of two flights to ``dst`` (the first builds
        the window and resolves the receivers' receive tables)."""
        sim, medium, mover, nodes = self._stacks()
        nodes[0].send_frame(Packet(origin=0, destination=dst), dst)
        sim.run()
        packet = Packet(origin=0, destination=dst)
        hits = medium.spatial_index.window_hits

        def flight():
            nodes[0].send_frame(packet, dst)
            sim.run()

        calls = python_calls(flight)
        _, _, vx, vy, _ = mover.segment(sim.now)
        assert vx or vy  # the sender was moving all along
        assert calls[0] == "flight" and calls.count("run") == 1
        calls = [name for name in calls[1:] if name != "run"]
        assert not set(_GONE) & set(calls)
        return calls, medium.spatial_index.window_hits - hits, nodes

    def test_broadcast_flight_is_fourteen_frames(self):
        calls, hits, nodes = self._flight(BROADCAST_ADDRESS)
        assert hits == 1
        assert calls == _BROADCAST and len(calls) == 14
        assert nodes[0].mac.state == "idle"
        assert [node.mac.stats.delivered_to_upper for node in nodes[1:]] == [2, 2]

    def test_the_completion_routine_takes_the_next_frame_into_contention(self):
        sim, medium, _, nodes = self._stacks()
        mac = nodes[0].mac
        nodes[0].send_frame(Packet(origin=0, destination=-1), -1)
        sim.run()
        nodes[0].send_frame(Packet(origin=0, destination=-1), -1)
        nodes[0].send_frame(Packet(origin=0, destination=-1), -1)
        sim.run(max_events=1)  # the first frame goes on the air
        assert mac.state == "transmit" and mac.queue_length == 1
        calls = python_calls(sim.run, None, 1)  # its end of flight
        assert calls == ["run", "_finish_batch", "transmission_finished", "_frame_done",
                         "_start_contention", "call_in"]
        assert mac.state == "contend" and mac.queue_length == 0

    def test_unicast_flight_with_its_ack(self):
        calls, hits, nodes = self._flight(1)
        assert hits == 2  # the data frame's window and the ACK's
        assert calls == [
            # The data frame, as a broadcast goes ...
            "send_frame", "send", "__init__", "__init__", "_start_contention",
            "call_in", "_attempt_transmission", "_transmit_batch",
            "transmission_window", "_launch", "call_in", "_finish_batch",
            # ... but its teardown reads the addressee's copy only, and hands
            # it straight to the receiver MAC: it builds and schedules the
            # ACK, then delivers upward.
            "_on_phy_receive", "_send_ack", "__init__", "_next_uid",
            "__post_init__", "call_in", "deliver",
            # The sender waits for the ACK.
            "transmission_finished", "_frame_done", "call_in",
            # The ACK's flight; its copy completes the sender's frame.
            "_transmit_ack", "__init__", "_transmit_batch", "transmission_window",
            "_launch", "call_in", "_finish_batch", "_on_phy_receive",
            "_handle_ack", "cancel", "_frame_done",
            # The receiver's end of flight: not its current frame.
            "transmission_finished", "_frame_done",
        ]
        assert nodes[0].mac.state == "idle" and nodes[0].mac.stats.acks_received == 2


# --------------------------------------------------------------------------
# Position on demand
# --------------------------------------------------------------------------

SPEED_MPS = 10.0
RANGE_M = 75.0
#: How far inside or outside range the late radio sits, measured
#: from the sender's position at the flight's start.  Smaller than the
#: distance the sender covers before the attach, so a position sampled at
#: attach time instead would flip the verdict; larger than the distance it
#: covers between the two flights, so the second one is a window hit.
MARGIN_M = 0.01
CONFIG = RadioConfig(transmission_range_m=RANGE_M)


def _late_attach(medium_cls, side):
    """Two flights of a sender moving at ``SPEED_MPS`` along +x: a short one
    that builds its window, then a long one on that window during which a
    radio ``MARGIN_M`` inside or outside range powers up.

    Returns the late radio's reception view mid-flight, the times the
    sender's ``segment`` ran while the long flight started and while the
    radio attached, the window hits of the long flight and the channel
    statistics after it.
    """
    config = CONFIG
    start_x = 10.0
    sim = Simulator()
    medium = medium_cls(sim, config)
    sender_mobility = WaypointTraceMobility(
        [(0.0, start_x, 200.0), (100.0, start_x + 100.0 * SPEED_MPS, 200.0)]
    )
    samples = []
    sample = sender_mobility.segment

    def counted(at_time):
        samples.append(at_time)
        return sample(at_time)

    sender_mobility.segment = counted  # before the index subscribes to it
    small = Frame(src=0, dst=-1, packet=Packet(origin=0, destination=-1, size_bytes=14))
    large = Frame(src=0, dst=-1, packet=Packet(origin=0, destination=-1, size_bytes=1500))
    second_start = 0.5
    airtime = config.airtime(large.size_bytes)
    attach_at = second_start + 0.8 * airtime
    # Inside: behind the sender, which draws away.  Outside: ahead of it,
    # and it closes in.
    sx = start_x + second_start * SPEED_MPS
    late_x = sx - (RANGE_M - MARGIN_M) if side == "inside" else sx + (RANGE_M + MARGIN_M)
    streams = RandomStreams(1)
    sender = Node(0, sim, medium, sender_mobility, streams)
    late = Node(1, sim, medium, StaticMobility(late_x, 200.0), streams)
    late.phy.power_down()
    first_start = second_start - 1.5 * config.airtime(small.size_bytes)
    sim.run(until=first_start)
    sender.phy.transmit(small)
    sim.run(until=second_start)
    hits = medium.spatial_index.window_hits
    del samples[:]
    sender.phy.transmit(large)
    at_start = len(samples)
    hits = medium.spatial_index.window_hits - hits
    sim.run(until=attach_at)
    late.phy.power_up()
    at_attach = len(samples) - at_start
    view = medium.receptions_for(1)
    sim.run()
    stats = medium.stats
    return view, at_start, at_attach, hits, (
        stats.transmissions, stats.deliveries, stats.disabled_discards,
    )


class TestPositionOnDemand:
    def test_a_window_hit_samples_no_position(self):
        _, at_start, _, hits, _ = _late_attach(Medium, "inside")
        assert hits == 1 and at_start == 0
        # The eager oracle samples the sender at every flight start.
        _, at_start, _, _, _ = _late_attach(PerCopyMedium, "inside")
        assert at_start == 1

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_late_attach_matches_the_eager_oracle(self, side):
        view, _, at_attach, hits, stats = _late_attach(Medium, side)
        assert hits == 1 and at_attach == 1  # asked once, when needed
        want_view, _, _, _, want_stats = _late_attach(PerCopyMedium, side)
        assert view == want_view
        assert view == ([(0, view[0][1], True)] if side == "inside" else [])
        assert stats == want_stats

    def test_a_sender_teleporting_mid_flight_keeps_its_start_position(self):
        # A jump is the one break in "a position is a function of time": the
        # medium pins the jumper's start position before the index forgets it.
        views = []
        for medium_cls in (Medium, PerCopyMedium):
            sim = Simulator()
            medium = medium_cls(sim, CONFIG)
            streams = RandomStreams(1)
            jumper = StaticMobility(10.0, 200.0)
            sender = Node(0, sim, medium, jumper, streams)
            late = Node(1, sim, medium, StaticMobility(70.0, 200.0), streams)
            late.phy.power_down()
            for flight in range(2):  # the second one is a window hit
                duration = sender.phy.transmit(
                    Frame(src=0, dst=-1, packet=Packet(origin=0, destination=-1)))
                sim.run(until=sim.now + duration / 2.0)
                if flight == 1:
                    jumper.move_to(300.0, 200.0)  # far out of range
                    late.phy.power_up()
                    views.append(medium.receptions_for(1))
                sim.run()
        assert views[0] == views[1] and len(views[0]) == 1
