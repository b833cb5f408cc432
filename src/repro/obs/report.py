"""Rendering of telemetry snapshots (the ``repro report`` subcommand).

Input is the JSON-ready snapshot produced by the scenario layer
(``ScenarioResult.telemetry`` / the ``telemetry`` payload of a campaign
:class:`~repro.campaign.store.TrialRecord`)::

    {"metrics": {...}, "histograms": {...}, "spans": {...},
     "recorder": {...}, "top_fanout": [[node_id, total], ...]}

The text report groups scalar metrics into a tree by their
``layer.subsystem`` namespace, renders histograms as bucket bars, derives
headline rates (kinetic-window hit rate, delivery ratio of the channel), and
tabulates the span breakdown and the top-N fan-out offenders.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..metrics.reporting import format_rows

_BAR_WIDTH = 40


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _derived_rates(metrics: Dict[str, object]) -> Dict[str, float]:
    """Headline ratios derived from counter pairs (only when present)."""

    def count(*names: str) -> Optional[float]:
        values = [metrics.get(name) for name in names]
        if all(isinstance(value, (int, float)) for value in values):
            return sum(values)
        return None

    transmissions = count("medium.channel.transmissions")
    frames = count("mac.csma.broadcast_transmissions", "mac.csma.data_transmissions")
    derived: Dict[str, float] = {}
    for name, numerator, denominator in (
        # Every transmission makes exactly one window call, so the share of
        # calls that resolved no pair is hits over transmissions.
        ("spatial.index.window_hit_rate", count("spatial.index.window_hits"),
         transmissions),
        ("medium.channel.deliveries_per_tx", count("medium.channel.deliveries"),
         transmissions),
        # Carrier-sense polls per frame sent: every defer is one calendar
        # event, so this says how much of the calendar is polling.
        ("mac.csma.defers_per_tx", count("mac.csma.defers"), frames),
    ):
        if numerator is not None and denominator:
            derived[name] = numerator / denominator
    return derived


def _metric_tree_lines(metrics: Dict[str, object]) -> List[str]:
    """Scalar metrics as an indented tree, grouped by dotted namespace."""
    lines: List[str] = []
    current_group: Optional[str] = None
    for name in sorted(metrics):
        value = metrics[name]
        parts = name.rsplit(".", 1)
        group = parts[0] if len(parts) == 2 else ""
        leaf = parts[-1]
        if group != current_group:
            current_group = group
            lines.append(f"  {group}")
        if isinstance(value, dict):
            rendered = ", ".join(
                f"{key}={_format_value(val)}" for key, val in value.items()
            )
            lines.append(f"    {leaf:<28} {rendered}")
        else:
            lines.append(f"    {leaf:<28} {_format_value(value)}")
    return lines


def _histogram_lines(name: str, data: Dict[str, object]) -> List[str]:
    """One histogram as header stats plus proportional bucket bars."""
    count = data.get("count", 0)
    lines = [
        f"  {name}: count={count} mean={_format_value(data.get('mean', 0.0))}"
        f" min={_format_value(data.get('min'))} max={_format_value(data.get('max'))}"
    ]
    quantiles = data.get("quantiles")
    if isinstance(quantiles, dict):
        rendered = " ".join(
            f"{key}={_format_value(val)}" for key, val in sorted(quantiles.items())
        )
        lines.append(f"    {rendered}")
    buckets = data.get("buckets")
    if isinstance(buckets, list) and buckets:
        peak = max(bucket_count for _, bucket_count in buckets) or 1
        for bound, bucket_count in buckets:
            bar = "#" * max(
                int(round(bucket_count / peak * _BAR_WIDTH)),
                1 if bucket_count else 0,
            )
            label = "+inf" if bound == "+inf" else f"<={_format_value(bound)}"
            lines.append(f"    {label:>8}  {bucket_count:>8}  {bar}")
    return lines


def render_report(
    telemetry: Dict[str, object],
    top_n: int = 10,
    title: Optional[str] = None,
) -> str:
    """The full text report for one telemetry snapshot."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))

    metrics = telemetry.get("metrics") or {}
    derived = _derived_rates(metrics)
    if derived:
        lines.append("")
        lines.append("Headline rates")
        for name in sorted(derived):
            lines.append(f"  {name:<40} {derived[name]:.4f}")

    if metrics:
        lines.append("")
        lines.append("Metrics")
        lines.extend(_metric_tree_lines(metrics))

    histograms = {
        name: data
        for name, data in (telemetry.get("histograms") or {}).items()
        if data.get("count")
    }
    if histograms:
        lines.append("")
        lines.append("Histograms")
        for name in sorted(histograms):
            lines.extend(_histogram_lines(name, histograms[name]))

    spans = telemetry.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("Phase breakdown (wall clock)")
        total_known = sum(span.get("total_s", 0.0) for span in spans.values())
        rows = []
        for name, span in sorted(
            spans.items(), key=lambda item: -item[1].get("total_s", 0.0)
        ):
            total_s = span.get("total_s", 0.0)
            share = total_s / total_known if total_known else 0.0
            rows.append(
                [
                    name,
                    span.get("count", 0),
                    f"{total_s:.4f}",
                    f"{span.get('max_s', 0.0) * 1e3:.3f}",
                    f"{share * 100:.1f}%",
                ]
            )
        lines.append(
            format_rows(["span", "count", "total_s", "max_ms", "share"], rows)
        )

    top_fanout = telemetry.get("top_fanout") or []
    if top_fanout:
        lines.append("")
        lines.append(f"Top fan-out offenders (by total receptions, top {top_n})")
        rows = [
            [node_id, total]
            for node_id, total in list(top_fanout)[:top_n]
        ]
        lines.append(format_rows(["sender", "total_fanout"], rows))

    recorder = telemetry.get("recorder") or {}
    if recorder:
        lines.append("")
        lines.append(
            "Flight recorder: retained={retained}/{capacity}"
            " recorded={recorded} dropped={dropped}".format(
                retained=recorder.get("retained", 0),
                capacity=recorder.get("capacity", 0),
                recorded=recorder.get("recorded", 0),
                dropped=recorder.get("dropped", 0),
            )
        )

    if len(lines) <= (2 if title else 0):
        lines.append("(telemetry snapshot is empty -- was the run instrumented?)")
    return "\n".join(lines)


def report_json(telemetry: Dict[str, object], top_n: int = 10) -> Dict[str, object]:
    """The machine-readable report: snapshot plus derived rates."""
    metrics = telemetry.get("metrics") or {}
    return {
        "derived": _derived_rates(metrics),
        "metrics": metrics,
        "histograms": telemetry.get("histograms") or {},
        "spans": telemetry.get("spans") or {},
        "top_fanout": list(telemetry.get("top_fanout") or [])[:top_n],
        "recorder": telemetry.get("recorder") or {},
    }


# ------------------------------------------------------------------- diff
def _scalar(value) -> Optional[float]:
    """The comparable number of one metric entry (gauges compare values)."""
    if isinstance(value, dict):
        value = value.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def _format_delta(delta: float) -> str:
    return f"{delta:+.4g}"


def render_diff(
    telemetry_a: Dict[str, object],
    telemetry_b: Dict[str, object],
    title_a: str = "A",
    title_b: str = "B",
    top_n: int = 10,
) -> str:
    """A side-by-side delta report of two telemetry snapshots (B - A).

    Rendered sections: changed scalar metrics (counters and gauge values),
    histogram count/mean shifts, span count/total shifts and the recorder
    volume delta.  Metrics present in only one snapshot render with ``--``
    on the missing side; unchanged metrics are counted, not listed.
    """
    title = f"Telemetry diff: {title_a} -> {title_b}"
    lines: List[str] = [title, "=" * len(title)]

    metrics_a = telemetry_a.get("metrics") or {}
    metrics_b = telemetry_b.get("metrics") or {}
    rows: List[List[object]] = []
    unchanged = 0
    for name in sorted(set(metrics_a) | set(metrics_b)):
        in_a = name in metrics_a
        in_b = name in metrics_b
        value_a = _scalar(metrics_a.get(name)) if in_a else None
        value_b = _scalar(metrics_b.get(name)) if in_b else None
        if in_a and in_b:
            if value_a is None or value_b is None or value_a == value_b:
                unchanged += 1
                continue
            delta = _format_delta(value_b - value_a)
        else:
            delta = "added" if in_b else "removed"
        rows.append(
            [
                name,
                _format_value(value_a) if in_a and value_a is not None else "--",
                _format_value(value_b) if in_b and value_b is not None else "--",
                delta,
            ]
        )
    differs = bool(rows)
    if rows:
        lines.append("")
        lines.append("Metrics")
        lines.append(format_rows(["metric", title_a, title_b, "delta"], rows))
    if unchanged:
        lines.append(f"  ({unchanged} metrics unchanged)")

    hists_a = telemetry_a.get("histograms") or {}
    hists_b = telemetry_b.get("histograms") or {}
    rows = []
    for name in sorted(set(hists_a) | set(hists_b)):
        data_a = hists_a.get(name) or {}
        data_b = hists_b.get(name) or {}
        count_a = data_a.get("count", 0)
        count_b = data_b.get("count", 0)
        mean_a = data_a.get("mean", 0.0)
        mean_b = data_b.get("mean", 0.0)
        if count_a == count_b and mean_a == mean_b:
            continue
        rows.append(
            [
                name,
                count_a,
                count_b,
                _format_delta(count_b - count_a),
                _format_value(mean_a),
                _format_value(mean_b),
            ]
        )
    differs = differs or bool(rows)
    if rows:
        lines.append("")
        lines.append("Histograms")
        lines.append(
            format_rows(
                ["histogram", f"n({title_a})", f"n({title_b})", "dn",
                 f"mean({title_a})", f"mean({title_b})"],
                rows,
            )
        )

    spans_a = telemetry_a.get("spans") or {}
    spans_b = telemetry_b.get("spans") or {}
    rows = []
    for name in sorted(set(spans_a) | set(spans_b)):
        span_a = spans_a.get(name) or {}
        span_b = spans_b.get(name) or {}
        count_a = span_a.get("count", 0)
        count_b = span_b.get("count", 0)
        total_a = span_a.get("total_s", 0.0)
        total_b = span_b.get("total_s", 0.0)
        if count_a == count_b and total_a == total_b:
            continue
        rows.append(
            [
                name,
                count_a,
                count_b,
                f"{total_a:.4f}",
                f"{total_b:.4f}",
                _format_delta(total_b - total_a),
            ]
        )
    differs = differs or bool(rows)
    if rows:
        lines.append("")
        lines.append("Spans (wall clock)")
        lines.append(
            format_rows(
                ["span", f"n({title_a})", f"n({title_b})",
                 f"s({title_a})", f"s({title_b})", "ds"],
                rows,
            )
        )

    recorder_a = telemetry_a.get("recorder") or {}
    recorder_b = telemetry_b.get("recorder") or {}
    recorded_a = recorder_a.get("recorded", 0)
    recorded_b = recorder_b.get("recorded", 0)
    if recorded_a != recorded_b:
        differs = True
        lines.append("")
        lines.append(
            f"Flight recorder: recorded {recorded_a} -> {recorded_b}"
            f" ({_format_delta(recorded_b - recorded_a)})"
        )

    if not differs:
        lines.append("(no differences)")
    return "\n".join(lines)
