"""Node mobility models.

The paper uses the random-waypoint model inside a 200 m x 200 m square with a
uniform pause time in [0, 80] s.  :class:`RandomWaypointMobility` reproduces
it; :mod:`~repro.mobility.gauss_markov`, :mod:`~repro.mobility.rpgm` and
:mod:`~repro.mobility.manhattan` cover smooth, group and street-grid motion
(selected per scenario through :class:`MobilityConfig`); and
:mod:`~repro.mobility.static` and :mod:`~repro.mobility.trace` support
testing and custom scenarios.

Every model exposes the motion-service contract of
:class:`~repro.mobility.base.MobilityModel` -- its current linear
:meth:`~repro.mobility.base.MobilityModel.segment` and a speed bound -- that
the spatial index and the medium build their caches on.

The base contract, the config and random waypoint (the default) load with
the package.  Every other model is import-on-use: :func:`build_fleet`
imports one in the branch that builds it, so a run never pays for a model
it does not use; import them from their modules.
"""

from repro.mobility.base import MobilityModel, RectangularArea
from repro.mobility.config import MOBILITY_MODELS, MobilityConfig, build_fleet, fleet_speed_bound
from repro.mobility.random_waypoint import RandomWaypointMobility

__all__ = [
    "MOBILITY_MODELS",
    "MobilityConfig",
    "MobilityModel",
    "RandomWaypointMobility",
    "RectangularArea",
    "build_fleet",
    "fleet_speed_bound",
]
