"""Radio and MAC configuration.

Defaults mirror the paper's GloMoSim setup: IEEE 802.11 at 2 Mbps with a
configurable transmission range (the paper sweeps 45 m - 85 m).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RadioConfig:
    """Physical-layer parameters.

    There is one medium implementation (:mod:`repro.net.medium`); the grid
    cell and slack below are the only performance knobs, and neither can
    change a result.

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
        Cell size of the uniform grid.  The default is speed-aware: a third
        of the transmission range for slow fleets (``speed_bound_mps``
        below 2 m/s, where finer cells prune more candidates and rebuilds
        are rare) and half the transmission range otherwise (fast fleets
        rebuild the grid often, so fewer, larger cells win).  Cell size is a
        pure performance knob -- queries classify candidates exactly, so
        results are identical for any value.
    speed_bound_mps:
        Upper bound on node speed, used only to pick the default grid cell
        size.  ``None`` (unknown) selects the conservative half-range cell.
    grid_slack_m:
        Staleness budget of the grid in metres: the grid is rebuilt once
        the fleet may have moved this far since it was built.  Queries
        inflate their radius accordingly, so results are unaffected.
        Defaults to 1/8 cell.
    area_topology:
        Geometry of the radio area: ``"flat"`` (the paper's bounded
        rectangle, the default) or ``"torus"`` (opposite edges identified;
        distances use the minimum-image convention).  The torus removes the
        paper's edge effects -- border nodes have the same expected degree
        as interior ones -- and needs the area dimensions below.
    area_width_m / area_height_m:
        Dimensions of the (periodic) area; required for ``"torus"`` and
        ignored for ``"flat"``.
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
    grid_cell_m: float | None = None
    grid_slack_m: float | None = None
    speed_bound_mps: float | None = None
    area_topology: str = "flat"
    area_width_m: float | None = None
    area_height_m: float | None = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.transmission_range_m <= 0:
            raise ValueError("transmission_range_m must be positive")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate_bps must be positive")
        if self.area_topology not in ("flat", "torus"):
            raise ValueError(
                f"area_topology must be 'flat' or 'torus', got {self.area_topology!r}"
            )
        if self.area_topology == "torus":
            if not self.area_width_m or not self.area_height_m:
                raise ValueError("a torus area needs area_width_m and area_height_m")
            if self.area_width_m <= 0 or self.area_height_m <= 0:
                raise ValueError("torus area dimensions must be positive")
        if self.speed_bound_mps is not None and self.speed_bound_mps < 0:
            raise ValueError("speed_bound_mps must be non-negative")
        if self.grid_cell_m is None:
            self.grid_cell_m = self.transmission_range_m / self.grid_cell_divisor(
                self.speed_bound_mps
            )
        if self.grid_cell_m <= 0:
            raise ValueError("grid_cell_m must be positive")
        if self.grid_slack_m is None:
            self.grid_slack_m = self.grid_cell_m / 8.0
        if self.grid_slack_m < 0:
            raise ValueError("grid_slack_m must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")

    #: Fleets at or above this speed bound use the coarser range/2 grid cell.
    FAST_FLEET_MPS = 2.0

    @staticmethod
    def grid_cell_divisor(speed_bound_mps: float | None) -> float:
        """Transmission-range divisor for the default grid cell size.

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


@dataclass
class MacConfig:
    """CSMA/CA MAC parameters (802.11-DCF-like)."""

    slot_time_s: float = 20e-6
    sifs_s: float = 10e-6
    difs_s: float = 50e-6
    cw_min: int = 16
    cw_max: int = 1024
    retry_limit: int = 4
    ack_timeout_s: float = 1.5e-3
    ack_size_bytes: int = 14
    queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("contention window bounds must satisfy 1 <= cw_min <= cw_max")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
