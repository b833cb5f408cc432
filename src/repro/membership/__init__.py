"""Dynamic group membership: churn models, controller, summaries.

The paper evaluates one multicast group with a member set fixed at startup.
This package makes membership a first-class workload dimension: seeded churn
models (:mod:`~repro.membership.churn`) propose joins and leaves, and the
:class:`~repro.membership.controller.MembershipController` applies them to a
live scenario.  Every run joins its initial members through the controller,
churn or not.  The controller holds who is in each group; each group's
:class:`~repro.metrics.collectors.DeliveryCollector` holds since when -- the
subscription intervals every delivery metric is charged against.

:class:`ChurnConfig` and the controller load with every run.  The churn
models and per-group summaries are import-on-use: the scenario imports them
only when churn or more than one group is configured, so a default run never
loads them; import them from their modules.
"""

from repro.membership.config import CHURN_MODELS, ChurnConfig

__all__ = [
    "CHURN_MODELS",
    "ChurnConfig",
]
