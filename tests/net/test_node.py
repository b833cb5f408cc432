"""Unit tests for the node's packet dispatcher and application plumbing."""

import sys
from collections import OrderedDict
from dataclasses import dataclass

import pytest

from repro.mobility.static import StaticMobility
from repro.net.config import RadioConfig
from repro.net.mac import MacAck
from repro.net.medium import Medium
from repro.net.node import Node
from repro.net.packet import Frame, Packet
from repro.routing.aodv import AodvRouter
from repro.routing.messages import HelloMessage
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.shard import ShardedSimulator
from tests.conftest import python_calls
from tests.net.reference_medium import MEDIA


@dataclass
class _AppPacket(Packet):
    payload: str = ""


@dataclass
class _OtherPacket(Packet):
    pass


def _make_node(node_id=0, position=(0.0, 0.0)):
    sim = Simulator()
    medium = Medium(sim, RadioConfig())
    node = Node(node_id, sim, medium, StaticMobility(*position), RandomStreams(1))
    return sim, node


class TestDispatch:
    def test_handler_receives_matching_packet_type(self):
        _, node = _make_node()
        seen = []
        node.register_handler(_AppPacket, lambda packet, sender: seen.append((packet, sender)))
        node.deliver(_AppPacket(origin=5, destination=0, payload="hi"), 5)
        assert len(seen) == 1
        assert seen[0][0].payload == "hi"
        assert seen[0][1] == 5

    def test_unhandled_packet_type_is_ignored(self):
        _, node = _make_node()
        node.register_handler(_AppPacket, lambda packet, sender: None)
        # Must not raise even though no handler matches.
        node.deliver(_OtherPacket(origin=1, destination=0), 1)
        # The miss is cached as a falsy receiver, so the next copy of the
        # type resolves nothing and calls nothing.
        assert node._dispatch_cache == {_OtherPacket: False}

    def test_duplicate_handler_registration_rejected(self):
        _, node = _make_node()
        node.register_handler(_AppPacket, lambda packet, sender: None)
        with pytest.raises(ValueError):
            node.register_handler(_AppPacket, lambda packet, sender: None)

    def test_subclass_falls_back_to_base_handler(self):
        @dataclass
        class _Derived(_AppPacket):
            pass

        _, node = _make_node()
        seen = []
        node.register_handler(_AppPacket, lambda packet, sender: seen.append(packet))
        node.deliver(_Derived(origin=1, destination=0), 1)
        assert len(seen) == 1

    def test_handler_registered_after_first_delivery_is_picked_up(self):
        # The per-type receiver is cached; late registrations must
        # invalidate it.
        _, node = _make_node()
        seen = []
        node.deliver(_AppPacket(origin=1, destination=0), 1)  # caches "no handler"
        node.register_handler(_AppPacket, lambda packet, sender: seen.append(packet))
        node.deliver(_AppPacket(origin=2, destination=0), 2)
        assert len(seen) == 1


def _make_stacks(positions, kernel="batch", sim=None, shards=1, build_mac=None):
    """Full ``Node`` stacks (radio + MAC + receive table) on one medium."""
    sim = sim or Simulator()
    medium = MEDIA[kernel](sim, RadioConfig(shards=shards))
    streams = RandomStreams(1)
    nodes = [
        Node(node_id, sim, medium, StaticMobility(x, y), streams,
             build_mac=build_mac is None or node_id in build_mac)
        for node_id, (x, y) in enumerate(positions)
    ]
    return sim, medium, nodes


def _air(node, packet, dst=-1):
    """Put ``packet`` on the air from ``node``'s radio, bypassing its MAC queue."""
    return node.phy.transmit(Frame(src=node.node_id, dst=dst, packet=packet))


KERNELS = ("batch", "object")


class TestBroadcastRoute:
    """Ordinary broadcast copies run the node's receive table straight from
    the medium's teardown (``Phy.broadcast_route``, lent by the MAC)."""

    def test_decoded_copy_runs_no_frame_between_medium_and_handler(self):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0), (0, 50)])
        seen = []

        def on_app_packet(packet, sender):
            seen.append((packet.uid, sender))

        for node in nodes[1:]:
            AodvRouter(node)  # the full stack: AODV's liveness used to be a sniffer
            node.register_handler(_AppPacket, on_app_packet)
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()  # first copy of the type resolves and caches its receiver
        packet = _AppPacket(origin=0, destination=-1)
        _air(nodes[0], packet)
        calls = []

        def profiler(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
        assert seen[2:] == [(packet.uid, 0), (packet.uid, 0)]
        # Per decoded copy the handler and nothing else (three frames sat in
        # between before: MAC entry, ``Node.deliver``, liveness sniffer; and
        # one per flight listed the copies); then the sender's end-of-flight
        # hook, which hands the MAC a frame it did not send.
        at = calls.index("_finish_batch")
        assert calls[at:at + 5] == [
            "_finish_batch", "on_app_packet", "on_app_packet",
            "transmission_finished", "_frame_done",
        ]
        assert [node.mac.stats.delivered_to_upper for node in nodes[1:]] == [2, 2]
        assert nodes[1].heard == {0: sim.now} and nodes[2].heard == {0: sim.now}

    def test_route_is_the_nodes_own_table_and_liveness_dict(self):
        _, _, nodes = _make_stacks([(0, 0)])
        receivers, resolve, mac_stats, heard = nodes[0].phy.broadcast_route
        assert receivers is nodes[0]._dispatch_cache
        assert resolve == nodes[0]._resolve_receiver
        assert mac_stats is nodes[0].mac.stats
        assert heard is nodes[0].heard

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_late_handler_is_seen_by_the_next_copy(self, kernel):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0)], kernel)
        calls = []
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()  # first medium delivery caches "no receiver" for the type
        assert nodes[1].mac.stats.delivered_to_upper == 1 and calls == []
        nodes[1].register_handler(_AppPacket, lambda p, s: calls.append(("handler", s)))
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()
        assert calls == [("handler", 0)]
        assert nodes[1].mac.stats.delivered_to_upper == 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_subclass_packet_reaches_base_class_handler(self, kernel):
        @dataclass
        class _Derived(_AppPacket):
            pass

        sim, medium, nodes = _make_stacks([(0, 0), (50, 0)], kernel)
        seen = []
        nodes[1].register_handler(_OtherPacket, lambda p, s: seen.append("other"))
        nodes[1].register_handler(_AppPacket, lambda p, s: seen.append(type(p)))
        _air(nodes[0], _Derived(origin=0, destination=-1))
        sim.run()
        assert seen == [_Derived]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crafted_broadcast_mac_ack_takes_the_receive_callback(self, kernel):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0)], kernel)
        seen = []
        nodes[1].register_handler(MacAck, lambda p, s: seen.append(p))
        _air(nodes[0], MacAck(origin=0, destination=-1, acked_uid=99))
        sim.run()
        # Link-layer control never reaches the receive table: the MAC eats it.
        assert medium.stats.deliveries == 1
        assert nodes[1].mac.stats.acks_received == 1
        assert nodes[1].mac.stats.delivered_to_upper == 0
        assert seen == [] and nodes[1].heard == {}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_radio_without_mac_or_callback_is_never_dispatched(self, kernel):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0)], kernel, build_mac={0})
        seen = []
        nodes[1].register_handler(_AppPacket, lambda p, s: seen.append(p))
        assert nodes[1].mac is None and nodes[1].phy.broadcast_route is None
        assert nodes[1].phy.receive_callback is None
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()
        assert medium.stats.deliveries == 1  # decoded and counted, not handed up
        assert seen == [] and nodes[1].heard == {}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_handler_timers_land_in_the_receivers_home_shard(self, kernel):
        sim, medium, nodes = _make_stacks(
            [(0, 0), (50, 0)], kernel, sim=ShardedSimulator(2), shards=2
        )
        nodes[1].phy.shard = 1
        landed = []

        def handler(packet, sender):
            before = sim.heap_sizes()
            sim.call_in(1.0, lambda: None)
            landed.append((sim.current_shard,
                           [b - a for a, b in zip(before, sim.heap_sizes())]))

        nodes[1].register_handler(_AppPacket, handler)
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()
        assert landed == [(1, [0, 1])]

    def test_power_down_inside_a_handler_reaches_the_copies_not_yet_visited(self):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0), (0, 50)])
        seen = []
        nodes[1].register_handler(_AppPacket, lambda p, s: nodes[2].fail())
        nodes[2].register_handler(_AppPacket, lambda p, s: seen.append(p))
        _air(nodes[0], _AppPacket(origin=0, destination=-1))
        sim.run()
        assert seen == [] and medium.stats.disabled_discards == 1
        assert medium.stats.deliveries == 1


class TestMailbox:
    """A packet type may be received into a mailbox -- a dict holding the last
    ``(packet, time)`` per sender -- instead of a handler; AODV's HELLOs are."""

    def test_mailbox_and_handler_for_one_type_is_rejected(self):
        _, node = _make_node()
        node.register_mailbox(_AppPacket, {})
        with pytest.raises(ValueError):
            node.register_handler(_AppPacket, lambda packet, sender: None)
        with pytest.raises(ValueError):
            node.register_mailbox(_AppPacket, {})
        node.register_handler(_OtherPacket, lambda packet, sender: None)
        with pytest.raises(ValueError):
            node.register_mailbox(_OtherPacket, {})

    def test_mailbox_must_be_a_plain_dict(self):
        _, node = _make_node()
        with pytest.raises(TypeError):
            node.register_mailbox(_AppPacket, OrderedDict())

    def test_deliver_stores_the_last_receipt_per_sender(self):
        sim, node = _make_node()
        mailbox = {}
        node.register_mailbox(_AppPacket, mailbox)
        first, other, second, third = (_AppPacket(origin=9, destination=0) for _ in range(4))
        node.deliver(first, 5)
        node.deliver(other, 7)
        sim.run(until=1.5)
        node.deliver(second, 5)
        # An overwritten sender keeps the position of its first pending receipt.
        assert list(mailbox.items()) == [(5, (second, 1.5)), (7, (other, 0.0))]
        node.deliver(third, 5)
        assert list(mailbox.items()) == [(5, (third, 1.5)), (7, (other, 0.0))]

    def test_decoded_hello_copy_runs_no_frame_in_the_teardown_loop(self):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0), (0, 50)])
        routers = [AodvRouter(node) for node in nodes]  # beacon timers not started
        _air(nodes[0], HelloMessage(origin=0, destination=-1, seq=1))
        sim.run()  # first copy of the type resolves and caches the mailbox
        hello = HelloMessage(origin=0, destination=-1, seq=2)
        _air(nodes[0], hello)
        calls = python_calls(sim.run)
        # Two decoded copies and no Python frame for either (the parent ran
        # ``_on_hello`` and ``update`` per copy): each is one dict store.
        at = calls.index("_finish_batch")
        assert calls[at:at + 3] == ["_finish_batch", "transmission_finished", "_frame_done"]
        for router in routers[1:]:
            assert router.route_table.hellos == {0: (hello, sim.now)}
            assert router.has_route(0) and router.route_table.hellos == {}
            assert router.route_table.entry(0).seq == 2
        assert [node.mac.stats.delivered_to_upper for node in nodes[1:]] == [2, 2]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_later_hello_replaces_the_receipt(self, kernel):
        sim, medium, nodes = _make_stacks([(0, 0), (50, 0), (0, 50)], kernel)
        routers = [AodvRouter(node) for node in nodes]
        for seq in (1, 2, 3):
            hello = HelloMessage(origin=0, destination=-1, seq=seq)
            _air(nodes[0], hello)
            sim.run()
            for router in routers[1:]:
                assert router.route_table.hellos == {0: (hello, sim.now)}
        for router in routers[1:]:
            assert router.has_route(0) and router.route_table.entry(0).seq == 3


class TestLiveness:
    def test_deliver_records_the_sender_as_heard(self):
        sim, node = _make_node()
        sim.run(until=2.5)
        node.deliver(_AppPacket(origin=9, destination=0), 5)
        assert node.heard == {5: 2.5}

    def test_self_and_negative_senders_are_not_recorded(self):
        _, node = _make_node(node_id=3)
        node.deliver(_AppPacket(origin=3, destination=3), 3)
        node.deliver(_AppPacket(origin=3, destination=3), -1)
        assert node.heard == {}


class TestLinkFailureListeners:
    def test_listeners_invoked_on_mac_failure(self):
        _, node = _make_node()
        failures = []
        node.add_link_failure_listener(lambda packet, hop: failures.append(hop))
        node._on_unicast_failure(Packet(origin=0, destination=3), 3)
        assert failures == [3]


class TestApplications:
    class _App:
        def __init__(self):
            self.started = 0

        def start(self):
            self.started += 1

    def test_applications_started_with_node(self):
        _, node = _make_node()
        app = self._App()
        node.add_application(app)
        node.start()
        assert app.started == 1

    def test_start_is_idempotent(self):
        _, node = _make_node()
        app = self._App()
        node.add_application(app)
        node.start()
        node.start()
        assert app.started == 1

    def test_application_added_after_start_is_started_immediately(self):
        _, node = _make_node()
        node.start()
        app = self._App()
        node.add_application(app)
        assert app.started == 1


class TestPosition:
    def test_position_defaults_to_current_time(self):
        sim, node = _make_node(position=(12.0, 8.0))
        assert node.position() == (12.0, 8.0)
        assert node.position(100.0) == (12.0, 8.0)
