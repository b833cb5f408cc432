"""What ``@dataclass`` writes at import: methods only where a run calls them.

Every method ``@dataclass`` generates is source that ``import repro`` writes
and compiles in each CLI run, pool worker and bench child.  Value types whose
equality is relied on (the configs, the run's results, the campaign's trial
and experiment records) keep the generated ``__eq__`` and ``__repr__``.
Packets and protocol table records are identity objects: their decorator
writes only the keyword ``__init__``, and packets share one hand-written
``__repr__``.  Counters are plain classes.
"""

import dataclasses
import importlib
import sys

import pytest

for _name in ("repro", "repro.campaign", "repro.multicast.odmrp", "repro.multicast.flooding"):
    importlib.import_module(_name)

from repro.multicast.messages import MulticastData  # noqa: E402
from repro.net.packet import Packet  # noqa: E402
from repro.routing.messages import RouteReply, RouteRequest  # noqa: E402

#: Per-node protocol state records: ``(module, class name)``.
TABLE_RECORDS = (
    ("repro.routing.aodv", "_PendingDiscovery"),
    ("repro.multicast.maodv", "_PendingJoin"),
    ("repro.multicast.route_table", "NextHopEntry"),
    ("repro.multicast.route_table", "GroupEntry"),
    ("repro.core.member_cache", "MemberCacheEntry"),
    ("repro.multicast.odmrp", "_SourceRoute"),
)

COUNTERS = {
    "MediumStats", "MacStats", "AodvStats", "MaodvStats", "GossipStats",
    "MembershipStats", "FloodingStats", "OdmrpStats",
}


def _packet_classes():
    found, todo = [], [Packet]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("repro."):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def _assert_generates_only_init(cls):
    params = cls.__dataclass_params__
    assert params.init and not params.eq and not params.repr, cls.__qualname__


def test_every_packet_class_is_found():
    assert len(_packet_classes()) >= 18


@pytest.mark.parametrize("cls", _packet_classes(), ids=lambda cls: cls.__name__)
def test_packets_generate_only_their_init(cls):
    _assert_generates_only_init(cls)
    assert cls.__repr__ is Packet.__repr__
    assert cls.__eq__ is object.__eq__


@pytest.mark.parametrize(
    "module, name", TABLE_RECORDS, ids=[name for _, name in TABLE_RECORDS]
)
def test_table_records_generate_only_their_init(module, name):
    _assert_generates_only_init(getattr(importlib.import_module(module), name))


def test_counters_are_plain_classes():
    counters = {
        value.__name__: value
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module_name
        and value.__name__.endswith("Stats")
    }
    assert set(counters) == COUNTERS
    for cls in counters.values():
        assert not dataclasses.is_dataclass(cls), cls.__name__


@pytest.mark.parametrize(
    "packet, expected",
    [
        (
            RouteReply(origin=3, destination=7, uid=11, target=7, hop_count=2),
            "RouteReply(origin=3, destination=7, size_bytes=64, ttl=32, uid=11, "
            "target=7, target_seq=0, hop_count=2, lifetime_s=10.0)",
        ),
        # The cached keys (``mid``, ``flood_key``) are fields with
        # ``repr=False`` and stay out, as in the repr @dataclass generated.
        (
            MulticastData(origin=1, destination=9, uid=5, source=1, seq=4),
            "MulticastData(origin=1, destination=9, size_bytes=64, ttl=32, uid=5, "
            "group=-1, source=1, seq=4, sent_at=0.0)",
        ),
        (
            RouteRequest(origin=2, destination=8, uid=6, rreq_id=3, target=8),
            "RouteRequest(origin=2, destination=-1, size_bytes=64, ttl=32, uid=6, "
            "target=8, target_seq=0, target_seq_known=False, origin_seq=0, "
            "rreq_id=3, hop_count=0)",
        ),
    ],
    ids=["RouteReply", "MulticastData", "RouteRequest"],
)
def test_packet_repr_names_the_type_and_its_fields(packet, expected):
    assert repr(packet) == expected
