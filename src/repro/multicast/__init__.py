"""Multicast routing substrate.

* :mod:`repro.multicast.maodv` -- Multicast AODV (the paper's underlying
  protocol): shared multicast tree per group, on-demand join via
  RREQ/RREP/MACT, group leader with periodic group hellos, tree repair on
  link breaks, pruning, and the nearest-member annotations used by Anonymous
  Gossip's locality optimisation.
* :mod:`repro.multicast.flooding` -- the blind-flooding baseline (the
  comparison protocol discussed in the paper's related work).
* :mod:`repro.multicast.odmrp` -- the mesh-based ODMRP baseline.
* :mod:`repro.multicast.config` -- the parameters of all three.

MAODV, its messages, its route table and every protocol's config load with
the package: the default scenario runs MAODV.  The flooding and ODMRP
routers are import-on-use -- a scenario imports one only when its
``protocol`` selects it -- so a run never pays for a baseline it does not
run; import them from their modules.
"""

from repro.multicast.config import FloodingConfig, MaodvConfig, OdmrpConfig
from repro.multicast.maodv import MaodvRouter, MaodvStats
from repro.multicast.messages import (
    GroupHello,
    JoinReply,
    JoinRequest,
    MactMessage,
    MulticastData,
    NearestMemberUpdate,
)
from repro.multicast.route_table import GroupEntry, MulticastRouteTable, NextHopEntry

__all__ = [
    "FloodingConfig",
    "GroupEntry",
    "GroupHello",
    "JoinReply",
    "JoinRequest",
    "MactMessage",
    "MaodvConfig",
    "MaodvRouter",
    "MaodvStats",
    "MulticastData",
    "MulticastRouteTable",
    "NearestMemberUpdate",
    "NextHopEntry",
    "OdmrpConfig",
]
