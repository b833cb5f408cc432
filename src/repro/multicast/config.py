"""Multicast protocol parameters: MAODV, flooding and ODMRP.

MAODV defaults follow the paper's simulation settings where stated (group
hello interval 5 s) and reasonable draft values elsewhere.  All three live
here, apart from their routers, so a scenario config or a stored trial can
carry them without importing routers it does not run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MaodvConfig:
    """Tunable MAODV parameters."""

    #: Interval between group hello floods sent by the group leader.
    group_hello_interval_s: float = 5.0
    #: TTL of group hello floods and join-request floods.
    flood_ttl: int = 16
    #: How long a join requester collects replies before activating the best.
    reply_wait_s: float = 0.5
    #: Number of join attempts before the node declares itself partitioned
    #: (and becomes its own group leader).
    join_retries: int = 3
    #: Number of repair attempts after a tree link break before giving up and
    #: becoming a partition leader.
    repair_retries: int = 2
    #: How long a repair attempt waits for replies.
    repair_wait_s: float = 0.75
    #: Size in bytes of the control messages.
    join_request_size_bytes: int = 28
    join_reply_size_bytes: int = 24
    mact_size_bytes: int = 16
    group_hello_size_bytes: int = 16
    nearest_member_update_size_bytes: int = 12
    #: Link-layer header accounted for multicast data (the payload size comes
    #: from the application).
    data_header_bytes: int = 20
    #: Size of the (source, seq) duplicate-suppression cache for data.
    data_cache_size: int = 4096
    #: Value used as "infinity" for nearest-member distances.
    nearest_member_infinity: int = 64
    #: Random delay added before re-broadcasting flooded packets (join
    #: requests, group hellos, tree data); avoids systematic
    #: synchronised-rebroadcast collisions between hidden terminals.
    broadcast_jitter_s: float = 0.01
    # Leadership hand-off when the group leader leaves the group (draft
    # rule): the leaver floods a tree-scoped hand-off carrying a one-pass
    # best-so-far election, and the oldest member on the tree takes over
    # (node id breaks exact ties).
    #: How long a bidding member waits, after first hearing a hand-off
    #: flood, before checking whether its bid is still the best it has
    #: seen and taking over.  Must cover a tree-wide flood sweep plus the
    #: echo of a better bid back along its branch.
    handoff_wait_s: float = 1.0
    #: How long an abdicated leader (that stayed a tree router) waits for a
    #: successor's group hello before resuming leadership itself.  The
    #: hand-off flood is a best-effort broadcast; without this fallback a
    #: lost flood would leave the group permanently leaderless (no hello
    #: timeout exists to trigger re-election).
    handoff_fallback_s: float = 6.0
    leader_handoff_size_bytes: int = 20

    def __post_init__(self) -> None:
        if self.group_hello_interval_s <= 0:
            raise ValueError("group_hello_interval_s must be positive")
        if self.flood_ttl < 1:
            raise ValueError("flood_ttl must be at least 1")
        if self.join_retries < 0 or self.repair_retries < 0:
            raise ValueError("retry counts must be non-negative")
        if self.nearest_member_infinity < 1:
            raise ValueError("nearest_member_infinity must be positive")
        if self.handoff_wait_s <= 0:
            raise ValueError("handoff_wait_s must be positive")
        if self.handoff_fallback_s <= 0:
            raise ValueError("handoff_fallback_s must be positive")


@dataclass
class FloodingConfig:
    """Parameters of the flooding baseline."""

    #: TTL given to flooded data packets.
    flood_ttl: int = 16
    #: Random delay before each (re)broadcast; prevents synchronised
    #: rebroadcast collisions between hidden terminals.
    broadcast_jitter_s: float = 0.01
    #: Duplicate-suppression cache size.
    data_cache_size: int = 4096
    #: Link-layer header accounted for multicast data.
    data_header_bytes: int = 20

    def __post_init__(self) -> None:
        if self.flood_ttl < 1:
            raise ValueError("flood_ttl must be at least 1")


@dataclass
class OdmrpConfig:
    """Tunable ODMRP parameters."""

    #: Interval between join-query floods while a source is active.
    join_query_interval_s: float = 3.0
    #: Soft-state lifetime of the forwarding-group flag (the classic value is
    #: three times the query interval).
    forwarding_lifetime_s: float = 9.0
    #: TTL of join-query floods.
    flood_ttl: int = 16
    #: Wire sizes.
    join_query_size_bytes: int = 20
    join_reply_size_bytes: int = 20
    data_header_bytes: int = 20
    #: Duplicate-suppression cache size for data packets.
    data_cache_size: int = 4096
    #: Jitter before re-broadcasting flooded packets.
    broadcast_jitter_s: float = 0.01

    def __post_init__(self) -> None:
        if self.join_query_interval_s <= 0:
            raise ValueError("join_query_interval_s must be positive")
        if self.forwarding_lifetime_s < self.join_query_interval_s:
            raise ValueError("forwarding_lifetime_s must cover at least one query interval")
        if self.flood_ttl < 1:
            raise ValueError("flood_ttl must be at least 1")
