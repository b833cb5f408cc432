"""Discrete-event simulation engine.

This package replaces the GloMoSim/PARSEC substrate used by the paper with a
pure-Python, sequential, deterministic discrete-event engine:

* :class:`repro.sim.engine.Simulator` -- the event calendar and clock;
  ``call_in`` / ``call_at`` file an event and return its entry, which
  ``cancel`` takes back.
* :class:`repro.sim.timers.PeriodicTimer` -- repeating timers (hello beacons,
  gossip rounds, group hellos, ...).
* :class:`repro.sim.timers.OneShotTimer` -- a re-armable one-shot timer
  (at most one pending event) over the calendar.
* :class:`repro.sim.random.RandomStreams` -- named, independently seeded
  random streams so every stochastic protocol decision is reproducible.

The engine is sequential rather than parallel (as PARSEC is); protocol
behaviour depends only on event order and timestamps, which are identical, so
this substitution does not change any result shape (see DESIGN.md).
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.random import RandomStreams
from repro.sim.timers import OneShotTimer, PeriodicTimer

__all__ = [
    "OneShotTimer",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
]
