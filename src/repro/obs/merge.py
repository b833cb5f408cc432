"""Deterministic merging of telemetry snapshots.

Cross-worker (shard) and cross-trial (campaign) telemetry both reduce to
the same operation: folding several JSON-ready snapshots -- the dicts
produced by :meth:`repro.obs.Obs.snapshot` -- into one snapshot of the same
shape.  This module implements that fold on plain dicts, with no imports
from the rest of the package, so the process-mode shard driver can merge
snapshots shipped over a pipe, the campaign aggregator can fold trial
records as they stream in, and ``repro report --diff`` can compare any two
of the results.

This is the one merge: live registries, recorders and span trackers are
never folded into each other, only their snapshots.  Merge semantics:

* **counters** sum;
* **gauges** merge min/max/updates, keep the last written value (the last
  input with any updates wins) and -- when per-input ``labels`` are given
  -- additionally appear once per input under ``name{label}``;
* **histograms** sum count/sum and bucket counts (by bound) and combine
  min/max; reservoirs pool every sample, sort, and downsample to capacity
  via evenly spaced order statistics, so the result is independent of the
  order samples arrived in;
* **spans** sum count/total_s and take the max of max_s;
* **recorder** summaries sum capacity/retained/recorded; full event lists
  (``recorder_events``) interleave by their ``t`` field, stably, so
  same-time events keep their input order (inputs are passed in shard
  order, matching the engine's global ``(time, seq)`` tie-break).

Associativity: every aggregate above is associative, with one bounded
exception -- once a pooled reservoir exceeds its capacity the evenly-spaced
downsample is applied, and downsampling intermediate merges loses samples a
single final downsample would have kept.  :func:`merge_snapshots` therefore
pools across *all* its inputs before downsampling once, and the
order-independence law tests scope strict associativity to under-capacity
reservoirs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def downsample_sorted(samples: Sequence[float], size: int) -> List[float]:
    """Evenly spaced order statistics of an already sorted sample list.

    Deterministic and permutation-free: the result depends only on the
    sorted values and ``size``.  Returns the input (as a list) when it
    already fits.
    """
    n = len(samples)
    if size <= 0 or n <= size:
        return list(samples)
    if size == 1:
        return [samples[0]]
    step = (n - 1) / (size - 1)
    return [samples[int(round(index * step))] for index in range(size)]


def quantile_summary(ordered: Sequence[float]) -> Dict[str, Optional[float]]:
    """The ``p50``/``p90``/``p99`` of a sorted sample list (``None`` when empty).

    The one estimator behind both :meth:`repro.obs.registry.Histogram.snapshot`
    and merged snapshots, so both quote quantiles on the same scale.
    """
    n = len(ordered)
    return {
        name: ordered[min(n - 1, int(q * n))] if n else None
        for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
    }


def interleave_events(event_lists: Sequence[Sequence[dict]]) -> List[dict]:
    """Recorder events of several inputs in one global time order.

    A stable sort of the concatenation by ``t``: same-``t`` events keep
    their input order (pass the lists in shard order), which matches the
    per-worker engines' own ``(time, seq)`` execution order.
    """
    merged = [event for events in event_lists for event in events]
    merged.sort(key=lambda event: event["t"])
    return merged


def merge_top_fanout(
    fanout_lists: Sequence[Sequence[Sequence[object]]], n: int
) -> List[List[object]]:
    """Combine per-input ``[[sender, total], ...]`` lists into one top-N."""
    totals: Dict[object, int] = {}
    for fanout in fanout_lists:
        for node_id, total in fanout:
            totals[node_id] = totals.get(node_id, 0) + total
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return [[node_id, total] for node_id, total in ranked[:n]]


def _fold_gauge(acc: Dict[str, object], item: Dict[str, object]) -> None:
    """Fold one gauge dict into the accumulator (see module docstring)."""
    if item.get("updates") or not acc.get("updates"):
        acc["value"] = item.get("value", 0.0)
    acc["updates"] = acc.get("updates", 0) + item.get("updates", 0)
    for key, better in (("min", min), ("max", max)):
        theirs = item.get(key)
        if theirs is not None:
            ours = acc.get(key)
            acc[key] = theirs if ours is None else better(ours, theirs)


def _merge_histogram_snaps(snaps: Sequence[Dict[str, object]]) -> Dict[str, object]:
    count = sum(snap.get("count", 0) for snap in snaps)
    total = 0.0
    for snap in snaps:
        total += snap.get("sum", 0.0)
    mins = [snap["min"] for snap in snaps if snap.get("min") is not None]
    maxes = [snap["max"] for snap in snaps if snap.get("max") is not None]
    merged: Dict[str, object] = {
        "count": count,
        "sum": total,
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
        "mean": total / count if count else 0.0,
    }
    bucket_lists = [snap["buckets"] for snap in snaps if snap.get("buckets")]
    if bucket_lists:
        by_bound: Dict[object, int] = {}
        for buckets in bucket_lists:
            for bound, bucket_count in buckets:
                by_bound[bound] = by_bound.get(bound, 0) + bucket_count
        numeric = sorted(bound for bound in by_bound if bound != "+inf")
        merged["buckets"] = [[bound, by_bound[bound]] for bound in numeric] + (
            [["+inf", by_bound["+inf"]]] if "+inf" in by_bound else []
        )
    reservoirs = [
        snap["reservoir"]
        for snap in snaps
        if isinstance(snap.get("reservoir"), dict)
    ]
    if reservoirs:
        capacity = max(res.get("capacity", 0) for res in reservoirs)
        samples = sorted(
            value for res in reservoirs for value in res.get("samples", [])
        )
        samples = downsample_sorted(samples, capacity)
        merged["reservoir"] = {"capacity": capacity, "samples": samples}
        merged["quantiles"] = quantile_summary(samples)
    return merged


def merge_snapshots(
    snapshots: Sequence[Dict[str, object]],
    labels: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Fold telemetry snapshots into one snapshot of the same shape.

    ``labels`` (one per snapshot, e.g. ``["shard=0", "shard=1"]``) makes
    each input's gauges additionally appear under ``name{label}`` next to
    the merged gauge -- the per-shard breakdown the report renders inside
    the same namespace group.  Counters, histograms and spans always merge
    unlabelled.
    """
    if not snapshots:
        return {}
    if labels is not None and len(labels) != len(snapshots):
        raise ValueError("labels must align one-to-one with snapshots")

    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, object]] = {}
    for position, snapshot in enumerate(snapshots):
        label = labels[position] if labels is not None else None
        for name, value in (snapshot.get("metrics") or {}).items():
            if isinstance(value, dict):
                acc = gauges.get(name)
                if acc is None:
                    acc = gauges[name] = {
                        "value": 0.0, "min": None, "max": None, "updates": 0,
                    }
                _fold_gauge(acc, value)
                if label is not None:
                    gauges[f"{name}{{{label}}}"] = dict(value)
            else:
                counters[name] = counters.get(name, 0) + value

    # Counters first, then gauges, each sorted: the exact key order of
    # MetricsRegistry.snapshot(), so a merged snapshot is shaped like a
    # single run's.
    metrics: Dict[str, object] = {}
    for name in sorted(counters):
        metrics[name] = counters[name]
    for name in sorted(gauges):
        metrics[name] = gauges[name]

    histogram_names: Dict[str, List[Dict[str, object]]] = {}
    for snapshot in snapshots:
        for name, data in (snapshot.get("histograms") or {}).items():
            histogram_names.setdefault(name, []).append(data)
    histograms = {
        name: _merge_histogram_snaps(histogram_names[name])
        for name in sorted(histogram_names)
    }

    spans: Dict[str, Dict[str, float]] = {}
    for snapshot in snapshots:
        for name, span in (snapshot.get("spans") or {}).items():
            acc = spans.get(name)
            if acc is None:
                acc = spans[name] = {"count": 0, "total_s": 0.0, "max_s": 0.0}
            acc["count"] += span.get("count", 0)
            acc["total_s"] += span.get("total_s", 0.0)
            acc["max_s"] = max(acc["max_s"], span.get("max_s", 0.0))
    spans = {name: spans[name] for name in sorted(spans)}

    merged: Dict[str, object] = {"metrics": metrics, "histograms": histograms}
    if any("spans" in snapshot for snapshot in snapshots):
        merged["spans"] = spans
    recorders = [
        snapshot["recorder"] for snapshot in snapshots if snapshot.get("recorder")
    ]
    if recorders:
        recorded = sum(rec.get("recorded", 0) for rec in recorders)
        retained = sum(rec.get("retained", 0) for rec in recorders)
        merged["recorder"] = {
            "capacity": sum(rec.get("capacity", 0) for rec in recorders),
            "retained": retained,
            "recorded": recorded,
            "dropped": recorded - retained,
        }
    if any("recorder_events" in snapshot for snapshot in snapshots):
        merged["recorder_events"] = interleave_events(
            [snapshot.get("recorder_events") or [] for snapshot in snapshots]
        )
    fanouts = [
        snapshot["top_fanout"] for snapshot in snapshots if snapshot.get("top_fanout")
    ]
    if fanouts:
        merged["top_fanout"] = merge_top_fanout(
            fanouts, max(len(fanout) for fanout in fanouts)
        )
    return merged


def merge_telemetry(
    merged: Optional[Dict[str, object]], telemetry: Dict[str, object]
) -> Dict[str, object]:
    """One streaming fold step: ``merged`` so far plus one more snapshot.

    ``merged=None`` starts the fold (the first snapshot is normalised
    through the same code path, so a one-trial merge equals the trial).
    """
    if merged is None:
        return merge_snapshots([telemetry])
    return merge_snapshots([merged, telemetry])
