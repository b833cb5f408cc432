"""Dynamic group membership: churn models, controller, summaries.

The paper evaluates one multicast group with a member set fixed at startup.
This package makes membership a first-class workload dimension: seeded churn
models (:mod:`~repro.membership.churn`) propose joins and leaves, and the
:class:`~repro.membership.controller.MembershipController` applies them to a
live scenario.  The controller holds who is in each group; each group's
:class:`~repro.metrics.collectors.DeliveryCollector` holds since when -- the
subscription intervals that make delivery metrics churn-aware.
With churn disabled (the default) the scenario builds and runs the exact
static-membership code path the goldens pin.

Only :class:`ChurnConfig` loads with the package, because every
``ScenarioConfig`` carries one.  The churn models, controller and
per-group summaries are import-on-use: the scenario imports them only when
churn or more than one group is configured, so a default run never loads
them; import them from their modules.
"""

from repro.membership.config import CHURN_MODELS, ChurnConfig

__all__ = [
    "CHURN_MODELS",
    "ChurnConfig",
]
