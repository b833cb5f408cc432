"""The member cache used by cached gossip (paper section 4.3).

Members opportunistically learn the addresses of other group members --
from multicast data packets, gossip replies, route replies and other
maintenance traffic -- at no extra message cost.  The cache is a bounded
buffer of ``(node address, hop count, last gossip time)`` tuples.  When full,
the entry with the greatest hop count is evicted; if no entry is farther than
the newcomer, the entry gossiped with most recently is replaced (the paper's
rule for avoiding repeated gossip with the same members).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Entries of the member cache (10 in the paper).
MEMBER_CACHE_SIZE = 10


@dataclass(eq=False, repr=False)
class MemberCacheEntry:
    """One known group member."""

    node: int
    numhops: int
    last_gossip: float


class MemberCache:
    """Bounded cache of known group members."""

    def __init__(self, capacity: int = MEMBER_CACHE_SIZE):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: Dict[int, MemberCacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    # ----------------------------------------------------------------- updates
    def note_member(self, node: int, numhops: int, now: float) -> bool:
        """Record that ``node`` is a member, ``numhops`` away, observed at ``now``.

        Returns True when the cache changed (new entry or refreshed entry).
        """
        entry = self._entries.get(node)
        if entry is not None:
            entry.numhops = numhops
            return True
        if len(self._entries) >= self.capacity and not self._evict(numhops):
            return False
        self._entries[node] = MemberCacheEntry(node=node, numhops=numhops, last_gossip=now)
        return True

    def _evict(self, newcomer_hops: int) -> bool:
        """Make room for a newcomer ``newcomer_hops`` away; True on success."""
        farther = [e for e in self._entries.values() if e.numhops > newcomer_hops]
        if farther:
            victim = max(farther, key=lambda e: e.numhops)
        else:
            # Replace the member gossiped with most recently, to avoid
            # repeatedly gossiping with the same members.
            victim = max(self._entries.values(), key=lambda e: e.last_gossip)
        del self._entries[victim.node]
        return True

    def record_gossip(self, node: int, now: float) -> None:
        """Update the last-gossip timestamp after gossiping with ``node``."""
        entry = self._entries.get(node)
        if entry is not None:
            entry.last_gossip = now

    # ----------------------------------------------------------------- queries
    def get(self, node: int) -> Optional[MemberCacheEntry]:
        """Return the cache entry for ``node`` if present."""
        return self._entries.get(node)

    def members(self) -> List[int]:
        """Addresses of every cached member, sorted."""
        return sorted(self._entries)

    def random_member(self, rng) -> Optional[int]:
        """Pick a uniformly random cached member (``None`` when empty)."""
        if not self._entries:
            return None
        return rng.choice(sorted(self._entries))
