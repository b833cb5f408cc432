"""Measurement and reporting.

* :class:`~repro.metrics.collectors.DeliveryCollector` -- records which
  multicast packets each group member received (through the routing protocol
  or through gossip recovery) and derives the per-receiver statistics the
  paper plots: mean / min / max packets received and the delivery ratio.
* :mod:`repro.metrics.reporting` -- plain-text table formatting used by the
  examples, the CLI and the campaign's result tables.  Import-on-use: a simulation
  never formats a table, so it is imported from its module.
"""

from repro.metrics.collectors import DeliveryCollector, DeliverySummary, MemberDelivery

__all__ = [
    "DeliveryCollector",
    "DeliverySummary",
    "MemberDelivery",
]
