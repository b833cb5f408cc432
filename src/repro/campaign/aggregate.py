"""Aggregation: reconstitute experiment results from stored trial records.

Given the flat :class:`~repro.campaign.store.TrialRecord` list of a campaign
-- whether it was produced serially, in parallel, or stitched together from
a resumed store -- this module rebuilds the exact
:class:`~repro.experiments.runner.ExperimentPoint` /
:class:`~repro.experiments.runner.ExperimentResult` objects the serial
runner produces, so everything downstream (tables, figures, benchmarks) is
unchanged.

Bit-identical aggregation is guaranteed by recombining each (x, variant)
group's records in ascending seed order -- the order the serial runner sums
them in -- before averaging.

For instrumented campaigns (``obs_config.enabled`` trials), the module also
folds per-trial telemetry snapshots into one campaign-wide snapshot: the
streaming :class:`TelemetryAggregator` merges each record as it completes
(no load-everything pass), and :func:`merged_store_telemetry` rebuilds the
same merge from a store on disk -- the ``repro report --merged`` path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.store import ResultStore, TrialRecord
from repro.experiments.figures import GOODPUT_COMBINATIONS, ExperimentSpec
from repro.experiments.runner import ExperimentPoint, ExperimentResult
from repro.obs.merge import merge_telemetry


def aggregate_point(x: float, variant: str, records: Sequence[TrialRecord]) -> ExperimentPoint:
    """Average one (x, variant) group of records into an experiment point.

    Records are sorted by seed so the floating-point additions happen in
    replication order, making the aggregate independent of completion order
    (and hence of the job count).
    """
    if not records:
        raise ValueError(f"no records to aggregate for x={x!r} variant={variant!r}")
    ordered = sorted(records, key=lambda record: record.seed)
    runs = len(ordered)
    return ExperimentPoint(
        x=x,
        variant=variant,
        packets_sent=sum(r.metrics["packets_sent"] for r in ordered) / runs,
        mean=sum(r.metrics["mean"] for r in ordered) / runs,
        minimum=sum(r.metrics["minimum"] for r in ordered) / runs,
        maximum=sum(r.metrics["maximum"] for r in ordered) / runs,
        delivery_ratio=sum(r.metrics["delivery_ratio"] for r in ordered) / runs,
        goodput=sum(r.metrics["goodput"] for r in ordered) / runs,
        runs=runs,
    )


def aggregate_experiment(
    spec: ExperimentSpec, records: Iterable[TrialRecord]
) -> ExperimentResult:
    """Rebuild the :class:`ExperimentResult` of ``spec`` from trial records.

    Records are grouped by (x, variant) in first-seen order, which for
    records returned by :func:`~repro.campaign.executor.run_campaign`
    reproduces the serial runner's point order.
    """
    groups: Dict[Tuple[float, str], List[TrialRecord]] = {}
    for record in records:
        groups.setdefault((record.x, record.variant), []).append(record)
    result = ExperimentResult(
        spec_figure=spec.figure, title=spec.title, x_label=spec.x_label
    )
    for (x, variant), group in groups.items():
        result.points.append(aggregate_point(x, variant, group))
    return result


def aggregate_goodput(
    spec: ExperimentSpec, records: Iterable[TrialRecord]
) -> Dict[tuple, Dict[int, float]]:
    """Rebuild the Fig. 8 goodput mapping from trial records.

    Returns ``(range_m, speed) -> {member -> mean goodput percent}``, the
    exact shape of the serial ``run_goodput_experiment``.
    """
    combinations = spec.combinations if spec.combinations is not None else GOODPUT_COMBINATIONS
    by_index: Dict[int, List[TrialRecord]] = {}
    for record in records:
        by_index.setdefault(int(record.x), []).append(record)
    results: Dict[tuple, Dict[int, float]] = {}
    for index, combination in enumerate(combinations):
        accumulated: Dict[int, List[float]] = {}
        for record in sorted(by_index.get(index, []), key=lambda r: r.seed):
            for member, goodput in record.goodput_by_member.items():
                accumulated.setdefault(member, []).append(goodput)
        results[tuple(combination)] = {
            member: sum(values) / len(values) for member, values in accumulated.items()
        }
    return results


# ------------------------------------------------------ telemetry folding
class TelemetryAggregator:
    """Streaming campaign-wide telemetry: fold trials as they complete.

    Each :meth:`add` merges one trial's telemetry snapshot into the running
    aggregate via :func:`repro.obs.merge.merge_telemetry` -- O(snapshot) memory
    regardless of trial count.  Full recorder event lists are dropped on the
    way in (the summed ``recorder`` summary is kept): a thousand-trial
    campaign must not accumulate a thousand ring buffers.

    Counters, histogram buckets and spans are order-independent sums;
    reservoir samples downsample pairwise in fold order, so the aggregate's
    quantiles depend (boundedly -- see :mod:`repro.obs.merge`) on append
    order.  The campaign executor appends in completion order.
    """

    def __init__(self) -> None:
        self.trials = 0
        self._merged: Optional[Dict[str, object]] = None

    def add(self, telemetry: Optional[Dict[str, object]]) -> None:
        """Fold one trial's telemetry in (no-op for empty/missing)."""
        if not telemetry:
            return
        snapshot = {
            key: value
            for key, value in telemetry.items()
            if key not in ("recorder_events", "merged")
        }
        self._merged = merge_telemetry(self._merged, snapshot)
        self.trials += 1

    def snapshot(self) -> Optional[Dict[str, object]]:
        """The campaign-wide merged telemetry (``None`` if nothing folded)."""
        if self._merged is None:
            return None
        merged = dict(self._merged)
        merged["merged"] = {"trials": self.trials}
        return merged


def merged_store_telemetry(
    store: ResultStore, key_filter: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """Fold every instrumented trial in ``store`` into one snapshot.

    Two streaming passes over the JSONL file: the first finds each key's
    last line number (the store's last-wins dedupe rule), the second folds
    exactly the winning records in on-disk order.  ``key_filter`` restricts
    the fold to trial keys containing the substring (e.g. one variant or
    one x value).  Returns ``None`` when no matching record carries
    telemetry.
    """
    winners: Dict[str, int] = {}
    for position, record in enumerate(store.iter_records()):
        if key_filter is not None and key_filter not in record.key:
            continue
        winners[record.key] = position
    keep = set(winners.values())
    aggregator = TelemetryAggregator()
    for position, record in enumerate(store.iter_records()):
        if position in keep:
            aggregator.add(record.telemetry)
    return aggregator.snapshot()
