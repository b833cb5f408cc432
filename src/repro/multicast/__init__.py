"""Multicast routing substrate.

* :mod:`repro.multicast.maodv` -- Multicast AODV (the paper's underlying
  protocol): shared multicast tree per group, on-demand join via
  RREQ/RREP/MACT, group leader with periodic group hellos, tree repair on
  link breaks, pruning, and the nearest-member annotations used by Anonymous
  Gossip's locality optimisation.
* :mod:`repro.multicast.flooding` -- the blind-flooding baseline (the
  comparison protocol discussed in the paper's related work).
* :mod:`repro.multicast.odmrp` -- the mesh-based ODMRP baseline.
* :mod:`repro.multicast.router` -- :class:`MulticastRouter`, the base of all
  three: data numbering, duplicate cache, member delivery and the parameters
  they share (flood TTL, data header, data cache).

MAODV, its messages, its route table and the base load with the package:
the default scenario runs MAODV.  Each router's own parameters are constants
of its module.  The flooding and ODMRP routers are import-on-use -- a
scenario imports one only when its ``protocol`` selects it -- so a run never
pays for a baseline it does not run; import them from their modules.
"""

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
from repro.multicast.router import MulticastRouter

__all__ = [
    "GroupEntry",
    "GroupHello",
    "JoinReply",
    "JoinRequest",
    "MactMessage",
    "MaodvRouter",
    "MaodvStats",
    "MulticastData",
    "MulticastRouteTable",
    "MulticastRouter",
    "NearestMemberUpdate",
    "NextHopEntry",
]
