"""Observability configuration.

:class:`ObsConfig` is the single switchboard of the :mod:`repro.obs`
subsystem.  It rides on :class:`~repro.workload.scenario.ScenarioConfig`
(``obs_config``) and is serialised through the campaign layer like every
other nested config, so an instrumented trial is as reproducible as a plain
one.

The default is **disabled**: every instrumentation point then binds the one
shared, switched-off facade :data:`repro.obs.NULL_OBS` and never writes to
it, so the hot paths stay untouched (see the package docstring for the
overhead contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ObsConfig:
    """Telemetry knobs of one instrumented run.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` (the default) binds the run to the
        shared, switched-off facade: every probe site is gated off, no
        sampler events enter the calendar, and simulation results are
        bit-identical.
    sample_interval_s:
        Period of the engine sampler (simulated seconds between samples of
        events/sec wall-clock throughput, heap depth and tombstones).
        Sampler events ride the simulation calendar, so an instrumented
        run processes more events than a plain one.
    flight_recorder_capacity:
        Ring-buffer size of the flight recorder (structured events; the
        oldest are overwritten once the ring is full).
    reservoir_size:
        Sample capacity of reservoir-mode histograms.  Reservoirs are
        seeded deterministically per metric name, so snapshots are
        reproducible for identical observation sequences.
    top_fanout_n:
        Number of worst fan-out offenders (senders by total reception
        fan-out) kept in the telemetry snapshot.
    dump_on_error_path:
        When set, a scenario run that raises dumps the flight recorder to
        this JSONL path before re-raising (crash forensics).  ``None``
        disables the on-error dump; :meth:`repro.obs.Obs.dump_recorder`
        remains available on demand.
    """

    enabled: bool = False
    sample_interval_s: float = 1.0
    flight_recorder_capacity: int = 4096
    reservoir_size: int = 512
    top_fanout_n: int = 10
    dump_on_error_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if self.flight_recorder_capacity < 1:
            raise ValueError("flight_recorder_capacity must be at least 1")
        if self.reservoir_size < 1:
            raise ValueError("reservoir_size must be at least 1")
        if self.top_fanout_n < 1:
            raise ValueError("top_fanout_n must be at least 1")
