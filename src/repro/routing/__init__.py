"""Unicast routing substrate: Ad-hoc On-demand Distance Vector (AODV).

AODV provides the unicast routes that Anonymous Gossip relies on for gossip
replies and cached gossip, and that MAODV builds upon for its control
traffic.  The implementation follows the protocol structure described in the
paper's section 3 (and the IETF draft it cites): on-demand route discovery
with RREQ/RREP, destination sequence numbers for freshness, hello beacons for
neighbour liveness, and RERR propagation on link breaks.
"""

from repro.routing.aodv import AodvRouter, AodvStats
from repro.routing.messages import HelloMessage, RouteError, RouteReply, RouteRequest
from repro.routing.route_table import RouteEntry, RouteTable

__all__ = [
    "AodvRouter",
    "AodvStats",
    "HelloMessage",
    "RouteEntry",
    "RouteError",
    "RouteReply",
    "RouteRequest",
    "RouteTable",
]
