"""Node mobility models.

The paper uses the random-waypoint model inside a 200 m x 200 m square with a
uniform pause time in [0, 80] s.  :class:`RandomWaypointMobility` reproduces
it; :class:`GaussMarkovMobility`, :class:`RpgmMobility` and
:class:`ManhattanGridMobility` cover smooth, group and street-grid motion
(selected per scenario through :class:`MobilityConfig`); and
:class:`StaticMobility`, :class:`GridMobility` and
:class:`WaypointTraceMobility` support testing and custom scenarios.

Every model exposes the motion-service contract of
:class:`~repro.mobility.base.MobilityModel` -- its current linear
:meth:`~repro.mobility.base.MobilityModel.segment` and a speed bound -- that
the spatial index and the medium build their caches on.
"""

from repro.mobility.base import MobilityModel, RectangularArea
from repro.mobility.config import MOBILITY_MODELS, MobilityConfig, build_fleet, fleet_speed_bound
from repro.mobility.gauss_markov import GaussMarkovMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import RpgmMobility, build_group_reference
from repro.mobility.static import GridMobility, StaticMobility
from repro.mobility.trace import WaypointTraceMobility

__all__ = [
    "GaussMarkovMobility",
    "GridMobility",
    "MOBILITY_MODELS",
    "ManhattanGridMobility",
    "MobilityConfig",
    "MobilityModel",
    "RandomWaypointMobility",
    "RectangularArea",
    "RpgmMobility",
    "StaticMobility",
    "WaypointTraceMobility",
    "build_fleet",
    "build_group_reference",
    "fleet_speed_bound",
]
