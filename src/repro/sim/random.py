"""Named, independently seeded random streams.

Every stochastic decision in the stack (mobility waypoints, MAC backoff,
gossip partner selection, ...) draws from its own named stream derived from a
single master seed.  This keeps experiments reproducible and lets one vary a
single source of randomness (for example the mobility pattern) while keeping
all others fixed -- the standard variance-reduction technique used when
comparing MAODV against MAODV+AG on the *same* node trajectories.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream ``name``.

    The derivation is a SHA-256 hash so that child streams are statistically
    independent and stable across Python versions and platforms.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("mobility")
    >>> b = streams.get("mobility")
    >>> a is b
    True
    >>> streams.get("mac") is a
    False
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def for_node(self, name: str, node_id: int) -> random.Random:
        """Return a per-node sub-stream, e.g. ``for_node('mac', 7)``."""
        return self.get(f"{name}/node-{node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomStreams(master_seed={self.master_seed}, streams={len(self._streams)})"
