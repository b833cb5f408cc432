"""The canonical metric naming scheme: ``layer.subsystem.name``.

Every telemetry metric is addressed by a three-part dotted name:

=============  ===============  ==============================================
layer          subsystem        examples
=============  ===============  ==============================================
``engine``     ``calendar``     ``engine.calendar.events_per_sec`` (gauge),
                                ``heap_depth``, ``tombstones``,
                                ``tombstone_ratio``, ``compactions``
``spatial``    ``index``        ``spatial.index.window_hits`` (window calls
                                answered without resolving a pair) /
                                ``window_builds`` (candidate sets built) /
                                ``window_resolves`` (pairs re-resolved) /
                                ``grid_rebuilds``
``medium``     ``channel``      promoted ``MediumStats`` counters
                                (``transmissions``, ``deliveries``,
                                ``collisions``, ...) plus the ``fanout``
                                histogram
``mac``        ``csma``         promoted ``MacStats`` counters plus the
                                obs-only ``backoffs`` / ``defers``
``routing``    ``aodv``         promoted ``AodvStats`` counters
``multicast``  ``maodv`` /      promoted per-protocol control-message
               ``odmrp`` /      counters
               ``flooding``
``gossip``     ``agent``        promoted ``GossipStats`` counters
``gossip``     ``buffers``      end-of-run occupancy gauges (``history``,
                                ``lost``, ``member_cache``)
``membership`` ``churn``        ``joins`` / ``leaves`` counters and the
                                ``join_to_first_delivery_s`` histogram
=============  ===============  ==============================================

The flat ``protocol_stats`` dict (``"mac.enqueued"``-style keys, aggregated
by the scenario from the per-layer stats objects) remains the
compatibility surface; :func:`promote_flat` maps those same keys into the
canonical namespace for the telemetry snapshot, so each counter has exactly
one storage location and two read paths.
"""

from __future__ import annotations

from typing import Dict

#: Aggregation prefix (the ``protocol_stats`` key prefix) -> canonical
#: ``layer.subsystem`` namespace.
CANONICAL_NAMESPACES: Dict[str, str] = {
    "aodv": "routing.aodv",
    "maodv": "multicast.maodv",
    "odmrp": "multicast.odmrp",
    "flooding": "multicast.flooding",
    "gossip": "gossip.agent",
    "mac": "mac.csma",
    "medium": "medium.channel",
    "membership": "membership.churn",
}


def canonical_namespace(prefix: str) -> str:
    """The ``layer.subsystem`` namespace of an aggregation prefix."""
    return CANONICAL_NAMESPACES.get(prefix, prefix)


def promote_flat(flat: Dict[str, float]) -> Dict[str, float]:
    """Map a legacy flat ``protocol_stats`` dict into canonical names."""
    promoted: Dict[str, float] = {}
    for key, value in flat.items():
        prefix, _, name = key.partition(".")
        promoted[f"{canonical_namespace(prefix)}.{name}"] = value
    return promoted
