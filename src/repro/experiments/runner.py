"""Sweep execution: run an :class:`ExperimentSpec` and aggregate the results.

For every swept value the runner executes the scenario twice per seed --
once with plain MAODV and once with MAODV + Anonymous Gossip on the *same*
mobility pattern (same seed) -- and averages the per-member delivery counts
across seeds, which is exactly how the paper produces each data point.

Execution is delegated to :mod:`repro.campaign`: the sweep is flattened into
independent trials, run serially or across a process pool (``jobs``),
optionally persisted to a JSONL store for resume, and the records are
aggregated back into the :class:`ExperimentResult` shape used everywhere
downstream.  ``jobs=1`` without a store behaves exactly like the historic
in-process loop and produces bit-identical aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.experiments.figures import ExperimentSpec
from repro.metrics.reporting import format_rows

if TYPE_CHECKING:  # pragma: no cover - avoid an import cycle at runtime
    from repro.campaign.executor import ProgressCallback
    from repro.campaign.store import ResultStore


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

    def variants(self) -> List[str]:
        """Names of the protocol variants present in the results."""
        seen: List[str] = []
        for point in self.points:
            if point.variant not in seen:
                seen.append(point.variant)
        return seen

    def to_table(self) -> str:
        """Human-readable table of every measured point."""
        headers = [self.x_label, "variant", "mean", "min", "max", "ratio", "goodput%"]
        rows = [point.as_row() for point in sorted(self.points, key=lambda p: (p.x, p.variant))]
        return f"{self.title}\n" + format_rows(headers, rows)


def run_experiment(
    spec: ExperimentSpec,
    *,
    scale: str = "quick",
    seeds: Optional[int] = None,
    x_values: Optional[Sequence[float]] = None,
    variants: Sequence[str] = ("maodv", "gossip"),
    jobs: int = 1,
    store: Optional["ResultStore"] = None,
    progress: Optional["ProgressCallback"] = None,
) -> ExperimentResult:
    """Run every point of ``spec`` and aggregate across seeds.

    ``variants`` selects which protocol variants to run: ``"maodv"`` is the
    underlying protocol alone, ``"gossip"`` is MAODV + Anonymous Gossip,
    ``"flooding"`` is the blind-flooding baseline (see
    :data:`repro.experiments.variants.KNOWN_VARIANTS` for the full registry).

    ``jobs`` fans the independent trials out over a process pool; ``store``
    persists one JSONL record per completed trial and skips trials already
    stored (resume).  Aggregates are identical for every ``jobs`` value.
    """
    from repro.campaign.aggregate import aggregate_experiment
    from repro.campaign.executor import run_campaign
    from repro.campaign.trials import trials_for_spec

    trials = trials_for_spec(
        spec, scale=scale, seeds=seeds, x_values=x_values, variants=variants
    )
    records = run_campaign(trials, jobs=jobs, store=store, progress=progress)
    return aggregate_experiment(spec, records)


def run_goodput_experiment(
    spec: ExperimentSpec,
    *,
    scale: str = "quick",
    seeds: Optional[int] = None,
    jobs: int = 1,
    store: Optional["ResultStore"] = None,
    progress: Optional["ProgressCallback"] = None,
) -> Dict[tuple, Dict[int, float]]:
    """Run the Fig. 8 goodput experiment.

    Returns a mapping ``(range_m, speed) -> {member -> goodput_percent}``
    aggregated over seeds (per-member goodput averaged across runs).  The
    combinations come from the spec's explicit ``combinations`` field,
    falling back to the paper's four (range, speed) pairs.  ``jobs`` and
    ``store`` behave as in :func:`run_experiment`.
    """
    from repro.campaign.aggregate import aggregate_goodput
    from repro.campaign.executor import run_campaign
    from repro.campaign.trials import trials_for_goodput

    trials = trials_for_goodput(spec, scale=scale, seeds=seeds)
    records = run_campaign(trials, jobs=jobs, store=store, progress=progress)
    return aggregate_goodput(spec, records)
