"""Radio configuration.

Defaults mirror the paper's GloMoSim setup: IEEE 802.11 at 2 Mbps with a
configurable transmission range (the paper sweeps 45 m - 85 m).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RadioConfig:
    """Physical-layer parameters.

    There is one medium implementation (:mod:`repro.net.medium`) on one
    area geometry, the paper's bounded rectangle.  The grid cell and slack
    below are derived from the range and the speed bound, never set; they
    are performance choices only and cannot change a result.

    Attributes
    ----------
    transmission_range_m:
        The radio's one range (unit disk): a transmission is received,
        sensed as channel-busy and able to corrupt concurrent receptions
        exactly within it.
    bitrate_bps:
        Channel bit rate.  The paper assumes 2 Mbps.
    preamble_s:
        Fixed per-frame PHY overhead added to the transmission duration.
    grid_cell_m:
        Cell size of the uniform grid (derived).  It is speed-aware: a third
        of the transmission range for slow fleets (``speed_bound_mps``
        below 2 m/s, where finer cells prune more candidates and rebuilds
        are rare) and half the transmission range otherwise (fast fleets
        rebuild the grid often, so fewer, larger cells win).  Cell size is a
        pure performance knob -- queries classify candidates exactly, so
        results are identical for any value.
    speed_bound_mps:
        Upper bound on node speed, used only to pick the grid cell size.
        ``None`` (unknown) selects the conservative half-range cell.
    grid_slack_m:
        Staleness budget of the grid in metres (derived, 1/8 cell): the grid
        is rebuilt once the fleet may have moved this far since it was
        built.  Queries inflate their radius accordingly, so results are
        unaffected.
    shards:
        Number of spatial regions of the region-sharded engine (see
        :mod:`repro.sim.shard`).  With more than one shard the medium routes
        each delivery into the receiving radio's home-shard event heap (when
        the driving simulator is sharded).  ``1`` -- the default -- is the
        classic single-calendar engine.
    """

    transmission_range_m: float = 75.0
    bitrate_bps: float = 2_000_000.0
    preamble_s: float = 192e-6
    speed_bound_mps: float | None = None
    shards: int = 1
    grid_cell_m: float = field(init=False)
    grid_slack_m: float = field(init=False)

    def __post_init__(self) -> None:
        if self.transmission_range_m <= 0:
            raise ValueError("transmission_range_m must be positive")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate_bps must be positive")
        if self.speed_bound_mps is not None and self.speed_bound_mps < 0:
            raise ValueError("speed_bound_mps must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        self.grid_cell_m = self.transmission_range_m / self.grid_cell_divisor(
            self.speed_bound_mps
        )
        self.grid_slack_m = self.grid_cell_m / 8.0

    #: Fleets at or above this speed bound use the coarser range/2 grid cell.
    FAST_FLEET_MPS = 2.0

    @staticmethod
    def grid_cell_divisor(speed_bound_mps: float | None) -> float:
        """Transmission-range divisor for the grid cell size.

        Slow fleets (bound below :data:`FAST_FLEET_MPS`) get range/3 -- finer
        cells prune more of the candidate window and the grid rarely needs a
        rebuild; fast or unknown-speed fleets get the rebuild-friendly range/2.
        """
        if speed_bound_mps is None or speed_bound_mps >= RadioConfig.FAST_FLEET_MPS:
            return 2.0
        return 3.0

    def airtime(self, size_bytes: int) -> float:
        """Time in seconds to put ``size_bytes`` on the air."""
        return self.preamble_s + (size_bytes * 8.0) / self.bitrate_bps

