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

The telemetry sizes are constants, each defined once where it is read:
:data:`~repro.obs.probes.SAMPLE_INTERVAL_S` (engine sampler period),
:data:`~repro.obs.recorder.FLIGHT_RECORDER_CAPACITY`,
:data:`~repro.obs.registry.RESERVOIR_SIZE` and :data:`TOP_FANOUT_N` below,
which both the scenario and the process-shard merge read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Worst fan-out offenders (senders by total reception fan-out) kept in a
#: run's telemetry snapshot.
TOP_FANOUT_N = 10


@dataclass
class ObsConfig:
    """Telemetry switches of one instrumented run.

    Attributes
    ----------
    enabled:
        Master switch.  ``False`` (the default) binds the run to the
        shared, switched-off facade: every probe site is gated off, no
        sampler events enter the calendar, and simulation results are
        bit-identical.  Enabled, the engine sampler's events ride the
        simulation calendar, so an instrumented run processes more events
        than a plain one.
    dump_on_error_path:
        When set, a scenario run that raises dumps the flight recorder to
        this JSONL path before re-raising (crash forensics).  ``None``
        disables the on-error dump; :meth:`repro.obs.Obs.dump_recorder`
        remains available on demand.
    """

    enabled: bool = False
    dump_on_error_path: Optional[str] = None
