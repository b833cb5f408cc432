"""Anonymous Gossip tuning knobs.

:class:`GossipConfig` holds the parameters the paper varies (section 5.5)
and the switches the ablation variants turn off: the gossip interval, the
lost buffer and history sizes, ``p_anon``, locality and cached gossip.
Defaults are the values of the paper's simulation environment (section
5.1): one gossip message per member per second, at most 10 lost messages
requested per gossip and a history table of 100 messages.  Every other
gossip parameter (member cache and lost table sizes, accept probability,
hop and reply limits, wire sizes) is a constant of
:mod:`repro.core.gossip`, which reads it.
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
    #: Number of recent messages kept in the history table (100 in the paper).
    history_size: int = 100
    #: Probability of choosing anonymous gossip over cached gossip for a
    #: round (p_anon in section 4.3).
    p_anon: float = 0.7
    #: Enable the locality bias of section 4.2 (prefer next hops with a
    #: smaller nearest-member distance).
    enable_locality: bool = True
    #: Enable cached gossip (section 4.3).  Disabled, every round is
    #: anonymous.
    enable_cached_gossip: bool = True

    def __post_init__(self) -> None:
        if self.gossip_interval_s <= 0:
            raise ValueError("gossip_interval_s must be positive")
        if not 0.0 <= self.p_anon <= 1.0:
            raise ValueError("p_anon must lie in [0, 1]")
        for name in ("lost_buffer_size", "history_size"):
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
