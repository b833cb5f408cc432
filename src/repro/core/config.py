"""Anonymous Gossip parameters.

Defaults are the values given in the paper's simulation environment
(section 5.1): one gossip message per member per second, at most 10 lost
messages requested per gossip, a member cache of 10 entries, a lost table of
200 entries and a history table of 100 messages.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GossipConfig:
    """Tunable Anonymous Gossip parameters."""

    #: Interval between gossip rounds at each member (1 s in the paper).
    gossip_interval_s: float = 1.0
    #: Maximum number of lost sequence numbers carried by a gossip message
    #: (10 in the paper).
    lost_buffer_size: int = 10
    #: Maximum number of entries in the member cache (10 in the paper).
    member_cache_size: int = 10
    #: Maximum number of lost messages tracked (200 in the paper).
    lost_table_size: int = 200
    #: Number of recent messages kept in the history table (100 in the paper).
    history_size: int = 100
    #: Probability of choosing anonymous gossip over cached gossip for a
    #: round (p_anon in section 4.3).
    p_anon: float = 0.7
    #: Probability that a member receiving an anonymous gossip request
    #: accepts it rather than propagating it further (section 4.1).
    accept_probability: float = 0.5
    #: Maximum number of tree hops an anonymous gossip request may travel.
    max_gossip_hops: int = 16
    #: Maximum number of recovered messages returned in one gossip reply.
    max_messages_per_reply: int = 10
    #: Enable the locality bias of section 4.2 (prefer next hops with a
    #: smaller nearest-member distance).
    enable_locality: bool = True
    #: Enable cached gossip (section 4.3).  Disabled, every round is
    #: anonymous.
    enable_cached_gossip: bool = True
    #: The sequence number each source is assumed to start from; losses
    #: before the first successful reception are counted against it.
    initial_expected_seq: int = 1
    #: Wire-size model of the gossip messages.
    request_base_size_bytes: int = 20
    request_per_lost_entry_bytes: int = 6
    reply_base_size_bytes: int = 16

    def __post_init__(self) -> None:
        if self.gossip_interval_s <= 0:
            raise ValueError("gossip_interval_s must be positive")
        if not 0.0 <= self.p_anon <= 1.0:
            raise ValueError("p_anon must lie in [0, 1]")
        if not 0.0 < self.accept_probability <= 1.0:
            raise ValueError("accept_probability must lie in (0, 1]")
        for name in (
            "lost_buffer_size",
            "member_cache_size",
            "lost_table_size",
            "history_size",
            "max_gossip_hops",
            "max_messages_per_reply",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def anonymous_only(self) -> "GossipConfig":
        """A copy of this config with cached gossip disabled."""
        from dataclasses import replace

        return replace(self, enable_cached_gossip=False, p_anon=1.0)

    def cached_only(self) -> "GossipConfig":
        """A copy of this config that always prefers cached gossip."""
        from dataclasses import replace

        return replace(self, enable_cached_gossip=True, p_anon=0.0)

    def without_locality(self) -> "GossipConfig":
        """A copy of this config with the locality bias disabled."""
        from dataclasses import replace

        return replace(self, enable_locality=False)
