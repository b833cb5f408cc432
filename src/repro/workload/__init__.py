"""Workload generation and scenario construction.

* :class:`~repro.workload.cbr.CbrSource` -- the paper's constant-bit-rate
  multicast source (64-byte packets every 200 ms between t=120 s and
  t=560 s).
* :class:`~repro.workload.cbr.MulticastSink` -- a member application that
  records every packet received (via the routing protocol or via gossip)
  into a :class:`~repro.metrics.collectors.DeliveryCollector`.
* :class:`~repro.workload.scenario.Scenario` /
  :class:`~repro.workload.scenario.ScenarioConfig` -- build and run a
  complete simulation of the paper's environment and return the measured
  statistics.
* :mod:`repro.workload.failures` -- node-failure schedules and injectors.
  Import-on-use: no scenario builds one by default, so it is imported from
  its module by the callers that script failures.
"""

from repro.workload.cbr import CbrSource, MulticastSink
from repro.workload.scenario import Scenario, ScenarioConfig, ScenarioResult

__all__ = [
    "CbrSource",
    "MulticastSink",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
]
