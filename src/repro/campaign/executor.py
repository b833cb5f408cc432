"""Campaign execution: run trials serially or across a process pool.

:func:`run_campaign` is the single entry point.  It takes a flat trial list
(see :mod:`repro.campaign.trials`), skips every trial the optional
:class:`~repro.campaign.store.ResultStore` already holds a record of, run
with the trial's own config (resume), executes the remainder --
in-process for ``jobs=1``, otherwise on a
:class:`~concurrent.futures.ProcessPoolExecutor` -- and returns one
:class:`~repro.campaign.store.TrialRecord` per input trial, in input order.

Because every trial is an independent simulation with its own seed, and the
aggregation layer recombines records in deterministic (seed) order, the
parallel path produces aggregates bit-identical to the serial one.

:func:`execute_trial` is a module-level function (not a closure or method) so
it pickles under the ``spawn`` start method used on Windows and macOS.

A process holds at most one scenario at a time.  A finished trial's
``Scenario`` dies by refcount, but its stack does not: components hold their
node, timers hold bound methods and the MAC caches its own, so the whole
stack is one reference cycle that only a full collection frees.  Left to the
collector's cadence, dead stacks pile up across trials (28 quick trials
peaked at ~40 MB instead of ~26 MB), so :func:`execute_trial` -- the one
function the serial path and every pool worker run per trial -- collects
once the record is built.  It freezes what was alive before the trial
first, so that collection walks the trial's own objects only.
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.store import ResultStore, TrialRecord
from repro.campaign.trials import TrialSpec, config_from_dict
from repro.workload.scenario import Scenario

#: Progress callback: ``(completed_so_far, total, record)``.  ``record`` is
#: ``None`` for the initial call that reports trials skipped via resume.
ProgressCallback = Callable[[int, int, Optional[TrialRecord]], None]


def execute_trial(trial: TrialSpec) -> TrialRecord:
    """Run one trial to completion and package its record.

    Top-level so worker processes can import it by reference; safe to call
    in-process as well (the serial path does).

    The record copies plain data out of the result, so once it is built the
    trial's scenario is unreachable but still alive in its own reference
    cycles; one full ``gc.collect()`` frees it before the next trial builds.
    Everything alive before the trial is frozen for its duration (unless the
    caller froze objects itself), so neither that collection nor the ones
    the trial triggers walk the imported modules and the caller's state:
    about 1.5 ms of collector time per quick trial.
    """
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        record = TrialRecord.from_result(trial, Scenario(trial.config).run())
        gc.collect()
    finally:
        if freeze:
            gc.unfreeze()
    return record


def _ran_config(record: TrialRecord, trial: TrialSpec) -> bool:
    """Did the stored ``record`` run exactly ``trial``'s config?

    A stored config that does not rebuild (a retired value, a key no
    version had, a value of the wrong type) is not the trial's.
    """
    try:
        return config_from_dict(record.config) == trial.config
    except (ValueError, TypeError):
        return False


def run_campaign(
    trials: Sequence[TrialSpec],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    telemetry: Optional["object"] = None,
) -> List[TrialRecord]:
    """Execute ``trials`` and return their records in input order.

    ``jobs`` selects the degree of parallelism: ``1`` runs everything
    in-process (no pool, no pickling), ``>1`` fans trials out over a process
    pool with ``jobs`` workers.  When ``store`` is given, a trial whose key
    is already stored is *not* re-run when the stored config rebuilds equal
    to the trial's (the stored record is returned instead); a stored record
    of another config, or of one this version refuses to load, is re-run
    and superseded.  Every freshly completed trial is appended to the store
    before the next result is awaited -- so an interrupted campaign loses at
    most the in-flight trials.  A trial that raises ends the campaign: in
    the pool no queued trial starts, the running ones finish and are stored,
    and the exception propagates.

    ``telemetry`` (a
    :class:`~repro.campaign.aggregate.TelemetryAggregator`) receives every
    record's telemetry as it lands -- resumed records first, then fresh ones
    in completion order -- folding the campaign-wide snapshot while the
    campaign runs instead of in an extra pass over the store.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    records: Dict[str, TrialRecord] = {}
    if store is not None:
        stored = store.load()
        for trial in trials:
            record = stored.get(trial.key)
            if record is not None and _ran_config(record, trial):
                records[trial.key] = record
                if telemetry is not None:
                    telemetry.add(record.telemetry)

    pending: List[TrialSpec] = []
    queued = set(records)
    for trial in trials:
        if trial.key not in queued:
            queued.add(trial.key)
            pending.append(trial)

    total = len(queued)
    done = len(records)
    if progress is not None:
        progress(done, total, None)

    def finish(record: TrialRecord) -> None:
        nonlocal done
        records[record.key] = record
        if store is not None:
            store.append(record)
        if telemetry is not None:
            telemetry.add(record.telemetry)
        done += 1
        if progress is not None:
            progress(done, total, record)

    if jobs == 1 or len(pending) <= 1:
        for trial in pending:
            finish(execute_trial(trial))
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(execute_trial, trial) for trial in pending]
            try:
                for future in as_completed(futures):
                    finish(future.result())
            except BaseException:
                # Leaving the ``with`` would run every queued trial first.
                pool.shutdown(cancel_futures=True)
                for future in futures:
                    if not future.cancelled() and future.exception() is None:
                        if future.result().key not in records:
                            finish(future.result())
                raise

    seen = set()
    ordered: List[TrialRecord] = []
    for trial in trials:
        if trial.key not in seen:
            seen.add(trial.key)
            ordered.append(records[trial.key])
    return ordered
