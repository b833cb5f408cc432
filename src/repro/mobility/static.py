"""Non-moving placement models, mostly used by unit and integration tests."""

from __future__ import annotations

import math

from repro.mobility.base import MobilityModel, Position, Segment


class StaticMobility(MobilityModel):
    """A node that never moves (except via scripted :meth:`move_to` jumps)."""

    def __init__(self, x: float, y: float):
        self._position: Position = (float(x), float(y))

    def position(self, at_time: float) -> Position:
        return self._position

    def segment(self, at_time: float) -> Segment:
        """At rest forever (teleports fire the position listeners)."""
        x, y = self._position
        return (x, y, 0.0, 0.0, math.inf)

    @property
    def speed_bound_mps(self) -> float:
        """Static nodes do not move; jumps are reported via listeners."""
        return 0.0

    def move_to(self, x: float, y: float) -> None:
        """Teleport the node (useful to script topology changes in tests)."""
        self._position = (float(x), float(y))
        self._position_changed()


class GridMobility(StaticMobility):
    """Places node ``index`` on a square grid with the given spacing.

    Handy for building deterministic line/grid topologies:

    >>> GridMobility(index=3, spacing_m=50.0, columns=2).position(0.0)
    (50.0, 50.0)
    """

    def __init__(self, index: int, spacing_m: float, columns: int | None = None):
        if index < 0:
            raise ValueError("index must be non-negative")
        if spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if columns is None:
            columns = max(1, int(math.ceil(math.sqrt(index + 1))))
        if columns < 1:
            raise ValueError("columns must be at least 1")
        row, col = divmod(index, columns)
        super().__init__(col * spacing_m, row * spacing_m)
        self.index = index
        self.columns = columns

