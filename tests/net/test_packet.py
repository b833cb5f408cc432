"""Unit tests for packet and frame base types."""

import copy
import importlib
import pkgutil

import pytest

import repro
from repro.net.addressing import BROADCAST_ADDRESS
from repro.net.packet import Frame, Packet, UnicastData


def _packet_classes():
    """``Packet`` and every subclass defined anywhere under ``src/repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, todo = [], [Packet]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("repro."):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


class TestPacket:
    def test_uids_are_unique_and_increasing(self):
        first = Packet(origin=1, destination=2)
        second = Packet(origin=1, destination=2)
        assert first.uid != second.uid
        assert second.uid > first.uid

    def test_forwarded_applies_its_changes(self):
        packet = Packet(origin=1, destination=2, ttl=5)
        forwarded = packet.forwarded(ttl=4)
        assert forwarded.ttl == 4
        assert packet.ttl == 5

    def test_forwarded_preserves_identity_fields(self):
        packet = Packet(origin=1, destination=2, size_bytes=99)
        forwarded = packet.forwarded(ttl=packet.ttl - 1)
        assert forwarded.origin == 1
        assert forwarded.destination == 2
        assert forwarded.size_bytes == 99

    def test_forwarded_draws_the_uid_a_new_packet_would_unless_kept(self):
        packet = Packet(origin=1, destination=2)
        fresh = packet.forwarded()
        kept = packet.forwarded(uid=packet.uid)
        after = Packet(origin=1, destination=2)
        assert packet.uid < fresh.uid and after.uid == fresh.uid + 1
        assert kept.uid == packet.uid

    @pytest.mark.parametrize("cls", _packet_classes(), ids=lambda cls: cls.__name__)
    def test_forwarded_is_copy_copy_field_for_field(self, cls):
        packet = cls(origin=1, destination=2)
        packet.ttl = 5
        if hasattr(packet, "payload"):
            packet.payload = Packet(origin=3, destination=4)
        clone = packet.forwarded(ttl=4)
        assert clone is not packet and type(clone) is cls
        assert clone.uid > packet.uid
        assert vars(clone) == {**vars(copy.copy(packet)), "ttl": 4, "uid": clone.uid}
        assert list(vars(clone)) == list(vars(packet))
        for name, value in vars(packet).items():
            # Shallow: every field but the changed ones is the original's own object.
            assert name in ("ttl", "uid") or getattr(clone, name) is value
        assert packet.ttl == 5
        assert vars(packet.forwarded(uid=packet.uid)) == vars(copy.copy(packet))


class TestFrame:
    def test_frame_size_includes_header(self):
        packet = Packet(origin=1, destination=2, size_bytes=100)
        frame = Frame(src=1, dst=2, packet=packet, header_bytes=34)
        assert frame.size_bytes == 134

    def test_broadcast_detection(self):
        packet = Packet(origin=1, destination=BROADCAST_ADDRESS)
        assert Frame(src=1, dst=BROADCAST_ADDRESS, packet=packet).is_broadcast
        assert not Frame(src=1, dst=2, packet=packet).is_broadcast


class TestUnicastData:
    def test_envelope_size_tracks_payload(self):
        payload = Packet(origin=3, destination=7, size_bytes=50)
        envelope = UnicastData(origin=3, destination=7, payload=payload)
        assert envelope.size_bytes == 70

    def test_envelope_without_payload_keeps_default_size(self):
        envelope = UnicastData(origin=3, destination=7)
        assert envelope.payload is None
        assert envelope.size_bytes == 64
