"""Multi-group delivery summaries.

One :class:`~repro.metrics.collectors.DeliveryCollector` exists per group;
this module recombines their per-group :class:`DeliverySummary` objects into
the single-summary shape the rest of the toolchain (experiment points, trial
records, CLI tables) consumes.

For a single group the combination is the group's summary, verbatim.
For ``G > 1`` groups every (group, member) pair is treated as one *member
instance*: the mean/min/max/std are taken over instance delivery counts, the
delivery ratio is the mean of per-instance ratios (each against the packets
its group sent while the member was subscribed), and ``packets_sent`` is the
total over groups.  The reported ``member_counts`` sum a node's counts across
the groups it belongs to; exact per-group counts stay available in the
per-group summaries.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.metrics.collectors import DeliverySummary


def combine_summaries(per_group: Dict[int, DeliverySummary]) -> DeliverySummary:
    """Merge per-group summaries into one cross-group summary."""
    if not per_group:
        return DeliverySummary(
            packets_sent=0, member_counts={}, mean=0.0, minimum=0,
            maximum=0, std=0.0, delivery_ratio=0.0, ratio_members=0,
        )
    if len(per_group) == 1:
        return next(iter(per_group.values()))
    counts: List[int] = []
    merged_counts: Dict[int, int] = {}
    total_sent = 0
    ratio_weight = 0
    ratio_sum = 0.0
    for summary in per_group.values():
        total_sent += summary.packets_sent
        # The group's ratio is already the mean of its per-member ratios, so
        # weighting it by the number of members it averaged over yields the
        # mean over (group, member) instances.
        ratio_sum += summary.delivery_ratio * summary.ratio_members
        ratio_weight += summary.ratio_members
        for member, count in summary.member_counts.items():
            counts.append(count)
            merged_counts[member] = merged_counts.get(member, 0) + count
    if not counts:
        return DeliverySummary(
            packets_sent=total_sent, member_counts={}, mean=0.0, minimum=0,
            maximum=0, std=0.0, delivery_ratio=0.0, ratio_members=0,
        )
    mean = sum(counts) / len(counts)
    variance = sum((value - mean) ** 2 for value in counts) / len(counts)
    return DeliverySummary(
        packets_sent=total_sent,
        member_counts={member: merged_counts[member] for member in sorted(merged_counts)},
        mean=mean,
        minimum=min(counts),
        maximum=max(counts),
        std=math.sqrt(variance),
        delivery_ratio=(ratio_sum / ratio_weight) if ratio_weight else 0.0,
        ratio_members=ratio_weight,
    )


def group_metrics(per_group: Dict[int, DeliverySummary]) -> Dict[str, Dict[str, float]]:
    """Flatten per-group summaries into the JSON shape stored per trial.

    ``members`` counts every node with a reception record in the group --
    under churn that is everyone who *ever* subscribed during the run, which
    grows with the churn rate and can exceed the configured group size.
    """
    return {
        str(group_index): {
            "packets_sent": float(summary.packets_sent),
            "mean": summary.mean,
            "minimum": float(summary.minimum),
            "maximum": float(summary.maximum),
            "std": summary.std,
            "delivery_ratio": summary.delivery_ratio,
            "members": float(len(summary.member_counts)),
        }
        for group_index, summary in sorted(per_group.items())
    }
