"""Running and aggregating experiment sweeps: the one sweep pipeline.

The specs and variants of a sweep live in :mod:`repro.experiments`; this
package executes them.  Every sweep -- each paper figure, Fig. 8 included,
and each beyond-the-paper sweep -- runs as a flat list of independent
trials, across CPU cores, with one JSONL record persisted per completed
trial, and is then folded back into the figure's results:

* :mod:`repro.campaign.trials` -- :func:`trials_for_spec` flattens a spec
  into :class:`TrialSpec` records.
* :mod:`repro.campaign.executor` -- :func:`run_campaign` executes trials
  serially or on a process pool, skipping trials already in the store.
* :mod:`repro.campaign.store` -- the append-only JSONL
  :class:`ResultStore` that makes interrupted campaigns resumable.
* :mod:`repro.campaign.aggregate` -- :func:`aggregate_experiment` builds an
  :class:`ExperimentResult` from the records (:func:`aggregate_goodput`
  folds Fig. 8's per-member goodput), bit-identical for every job count.

Typical use::

    from repro.campaign import (
        ResultStore, aggregate_experiment, run_campaign, trials_for_spec,
    )

    trials = trials_for_spec(spec, scale="quick", seeds=2)
    records = run_campaign(trials, jobs=4, store=ResultStore("fig2.jsonl"))
    result = aggregate_experiment(spec, records)
"""

from repro.campaign.aggregate import (
    ExperimentPoint,
    ExperimentResult,
    TelemetryAggregator,
    aggregate_experiment,
    aggregate_goodput,
    aggregate_point,
    merged_store_telemetry,
)
from repro.campaign.executor import execute_trial, run_campaign
from repro.campaign.store import ResultStore, TrialRecord
from repro.campaign.trials import (
    TrialSpec,
    config_from_dict,
    config_to_dict,
    trials_for_spec,
)

__all__ = [
    "ExperimentPoint",
    "ExperimentResult",
    "TelemetryAggregator",
    "TrialSpec",
    "TrialRecord",
    "ResultStore",
    "aggregate_experiment",
    "aggregate_goodput",
    "aggregate_point",
    "merged_store_telemetry",
    "config_from_dict",
    "config_to_dict",
    "execute_trial",
    "run_campaign",
    "trials_for_spec",
]
