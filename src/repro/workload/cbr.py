"""Constant-bit-rate multicast source and measuring sink applications."""

from __future__ import annotations

from typing import Optional

from repro.metrics.collectors import DeliveryCollector
from repro.multicast.messages import MulticastData
from repro.net.addressing import GroupAddress
from repro.net.node import Node


class CbrSource:
    """The paper's traffic generator.

    Sends ``payload_bytes``-sized multicast packets to ``group`` every
    ``interval_s`` seconds from ``start_s`` until ``stop_s``.  With the paper
    defaults (120 s to 560 s at 200 ms) this produces 2201 packets.
    """

    def __init__(
        self,
        node: Node,
        multicast,
        group: GroupAddress,
        *,
        start_s: float = 120.0,
        stop_s: float = 560.0,
        interval_s: float = 0.2,
        payload_bytes: int = 64,
        collector: Optional[DeliveryCollector] = None,
    ):
        if stop_s < start_s:
            raise ValueError("stop_s must not precede start_s")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.node = node
        self.multicast = multicast
        self.group = group
        self.start_s = float(start_s)
        self.stop_s = float(stop_s)
        self.interval_s = float(interval_s)
        self.payload_bytes = int(payload_bytes)
        self.collector = collector
        self.packets_sent = 0

    def start(self) -> None:
        """Schedule the first transmission."""
        self.node.sim.call_at(self.start_s, self._send)

    def _send(self) -> None:
        now = self.node.sim.now
        if now > self.stop_s:
            return
        data = self.multicast.send_data(self.group, self.payload_bytes)
        self.packets_sent += 1
        if self.collector is not None:
            self.collector.note_sent(data.mid, at=now)
        self.node.sim.call_in(self.interval_s, self._send)


class MulticastSink:
    """Member-side application recording every received packet of ``group``."""

    def __init__(
        self,
        node: Node,
        multicast,
        collector: DeliveryCollector,
        *,
        group: GroupAddress,
        gossip=None,
    ):
        self.node = node
        self.collector = collector
        self.group = group
        self.packets_received = 0
        self.packets_recovered = 0
        collector.register_member(node.node_id)
        multicast.add_delivery_listener(self._on_routing_delivery)
        if gossip is not None:
            gossip.add_recovery_listener(self._on_gossip_recovery)

    def start(self) -> None:
        """Sinks are passive; nothing to start."""

    def _on_routing_delivery(self, data: MulticastData) -> None:
        if data.group != self.group:
            return
        self.packets_received += 1
        self.collector.note_delivered(self.node.node_id, data.mid, via_gossip=False)

    def _on_gossip_recovery(self, data: MulticastData) -> None:
        if data.group != self.group:
            return
        self.packets_recovered += 1
        self.collector.note_delivered(self.node.node_id, data.mid, via_gossip=True)
