"""Aggregation: fold trial records into the results of an experiment.

Given the flat :class:`~repro.campaign.store.TrialRecord` list of a campaign
-- whether it was produced serially, in parallel, or stitched together from
a resumed store -- this module builds the :class:`ExperimentPoint` /
:class:`ExperimentResult` objects of a figure sweep (one point per
(x, variant) pair), and :func:`aggregate_goodput` folds Fig. 8's per-member
gossip goodput.

Bit-identical aggregation is guaranteed by recombining each (x, variant)
group's records in ascending seed order before averaging, so the result
does not depend on completion order or the job count.

For instrumented campaigns (``obs_config.enabled`` trials), the module also
folds per-trial telemetry snapshots into one campaign-wide snapshot: the
streaming :class:`TelemetryAggregator` merges each record as it completes
(no load-everything pass), and :func:`merged_store_telemetry` rebuilds the
same merge from a store on disk -- the ``repro report --merged`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.store import ResultStore, TrialRecord
from repro.experiments.figures import ExperimentSpec
from repro.metrics.reporting import format_rows


@dataclass
class ExperimentPoint:
    """Aggregated measurements for one (x value, protocol variant) pair."""

    x: float
    variant: str
    packets_sent: float
    mean: float
    minimum: float
    maximum: float
    delivery_ratio: float
    goodput: float
    runs: int

    def as_row(self) -> List[object]:
        """Row used by the text reports."""
        return [
            self.x,
            self.variant,
            f"{self.mean:.1f}",
            f"{self.minimum:.1f}",
            f"{self.maximum:.1f}",
            f"{self.delivery_ratio:.3f}",
            f"{self.goodput:.1f}",
        ]


@dataclass
class ExperimentResult:
    """All points of one experiment (one reproduced figure)."""

    spec_figure: str
    title: str
    x_label: str
    points: List[ExperimentPoint] = field(default_factory=list)

    def points_for(self, variant: str) -> List[ExperimentPoint]:
        """Points of one protocol variant, ordered by x."""
        return sorted(
            (point for point in self.points if point.variant == variant),
            key=lambda point: point.x,
        )

    def to_table(self) -> str:
        """Human-readable table of every measured point."""
        headers = [self.x_label, "variant", "mean", "min", "max", "ratio", "goodput%"]
        rows = [point.as_row() for point in sorted(self.points, key=lambda p: (p.x, p.variant))]
        return f"{self.title}\n" + format_rows(headers, rows)


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
    records returned by :func:`~repro.campaign.executor.run_campaign` is
    the order of the trial list.
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
    """Fold the Fig. 8 goodput records into per-member means.

    Returns ``(range_m, speed) -> {member -> goodput percent averaged over
    seeds}``, one entry per combination of ``spec.combinations``.
    """
    by_index: Dict[int, List[TrialRecord]] = {}
    for record in records:
        by_index.setdefault(int(record.x), []).append(record)
    results: Dict[tuple, Dict[int, float]] = {}
    for index, combination in enumerate(spec.combinations):
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
        from repro.obs.merge import merge_telemetry
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
