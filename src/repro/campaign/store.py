"""JSONL result store: one appended record per completed trial.

The store is the durability layer of a campaign.  Every completed trial
appends exactly one JSON object (one line) to the store file, so a campaign
killed mid-run loses at most the trials that were still in flight; re-running
the same campaign against the same store skips every trial whose key is
already present (*resume*).

Records are self-describing: besides the aggregatable metrics they carry the
trial coordinates and the full materialised scenario config, so a store can
be audited, re-aggregated or re-run without the code that produced it.

Robustness rules:

* duplicate keys are allowed on disk; :meth:`ResultStore.load` keeps the
  last record per key (last-wins dedupe),
* a truncated final line (the typical artefact of a killed process) is
  skipped instead of failing the whole load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.campaign.trials import TrialSpec
    from repro.workload.scenario import ScenarioResult

#: Store format version, bumped when the record layout changes.
STORE_VERSION = 1


@dataclass
class TrialRecord:
    """The persisted outcome of one completed trial."""

    key: str
    campaign: str
    x: float
    variant: str
    seed: int
    scale: str
    #: Scalar metrics: mean/minimum/maximum/std/delivery_ratio/goodput/
    #: packets_sent/events_processed.
    metrics: Dict[str, float]
    #: Per-member gossip goodput percentages (empty when gossip is off).
    goodput_by_member: Dict[int, float] = field(default_factory=dict)
    #: Distinct packets received per member.
    member_counts: Dict[int, int] = field(default_factory=dict)
    #: Aggregated protocol counters of the run.
    protocol_stats: Dict[str, float] = field(default_factory=dict)
    #: Grid-point overrides (for ad-hoc grid campaigns).
    params: Dict[str, object] = field(default_factory=dict)
    #: The materialised scenario config the trial ran (plain dict).
    config: Dict[str, object] = field(default_factory=dict)
    #: Per-group delivery metrics (group index -> metric dict); populated for
    #: multi-group and churn runs, empty for the static single-group case.
    groups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Membership churn telemetry (``{"events": n}``); empty without churn.
    membership: Dict[str, float] = field(default_factory=dict)
    #: Observability snapshot of the run (see ``repro.obs``); empty unless
    #: the trial ran with ``obs_config.enabled``.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_result(cls, trial: "TrialSpec", result: "ScenarioResult") -> "TrialRecord":
        """Build the record of ``trial`` from its scenario result."""
        from repro.campaign.trials import config_to_dict
        from repro.membership.summary import group_metrics

        summary = result.summary
        multi = len(result.group_summaries) > 1 or result.membership_events > 0
        return cls(
            key=trial.key,
            campaign=trial.campaign,
            x=trial.x,
            variant=trial.variant,
            seed=trial.seed,
            scale=trial.scale,
            metrics={
                "mean": summary.mean,
                "minimum": summary.minimum,
                "maximum": summary.maximum,
                "std": summary.std,
                "delivery_ratio": summary.delivery_ratio,
                "goodput": result.mean_goodput,
                "packets_sent": result.packets_sent,
                "events_processed": result.events_processed,
            },
            goodput_by_member=dict(result.goodput_by_member),
            member_counts=dict(result.member_counts),
            protocol_stats=dict(result.protocol_stats),
            params=dict(trial.params),
            config=config_to_dict(trial.config),
            groups=group_metrics(result.group_summaries) if multi else {},
            membership=(
                {"events": float(result.membership_events)}
                if result.membership_events
                else {}
            ),
            telemetry=dict(result.telemetry) if result.telemetry else {},
        )

    # ----------------------------------------------------------- JSON codec
    def to_json(self) -> str:
        """One-line JSON representation (the stored record)."""
        payload = {
            "version": STORE_VERSION,
            "key": self.key,
            "campaign": self.campaign,
            "x": self.x,
            "variant": self.variant,
            "seed": self.seed,
            "scale": self.scale,
            "metrics": self.metrics,
            "goodput_by_member": {str(k): v for k, v in self.goodput_by_member.items()},
            "member_counts": {str(k): v for k, v in self.member_counts.items()},
            "protocol_stats": self.protocol_stats,
            "params": self.params,
            "config": self.config,
            "groups": self.groups,
            "membership": self.membership,
        }
        if self.telemetry:
            payload["telemetry"] = self.telemetry
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        """Parse one stored line back into a record."""
        payload = json.loads(line)
        return cls(
            key=payload["key"],
            campaign=payload["campaign"],
            x=payload["x"],
            variant=payload["variant"],
            seed=payload["seed"],
            scale=payload["scale"],
            metrics=dict(payload["metrics"]),
            goodput_by_member={int(k): v for k, v in payload.get("goodput_by_member", {}).items()},
            member_counts={int(k): v for k, v in payload.get("member_counts", {}).items()},
            protocol_stats=dict(payload.get("protocol_stats", {})),
            params=dict(payload.get("params", {})),
            config=dict(payload.get("config", {})),
            groups=dict(payload.get("groups", {})),
            membership=dict(payload.get("membership", {})),
            telemetry=dict(payload.get("telemetry", {})),
        )


class ResultStore:
    """Append-only JSONL store of :class:`TrialRecord` lines."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r})"

    def exists(self) -> bool:
        """Whether the store file exists on disk."""
        return self.path.exists()

    def append(self, record: TrialRecord) -> None:
        """Durably append one completed trial (flushed per record)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(record.to_json() + "\n")
            handle.flush()

    def load(self) -> Dict[str, TrialRecord]:
        """All stored records keyed by trial key, last record per key wins.

        A fold over :meth:`iter_records`, so blank and truncated lines
        (killed-process artefacts) are skipped by the same rule.
        """
        return {record.key: record for record in self.iter_records()}

    def iter_records(self):
        """Stream the stored records in on-disk order, one at a time.

        No dedupe and no whole-file materialisation: duplicates of a
        resumed/re-run campaign are yielded in append order (last wins is
        the caller's concern -- see
        :func:`repro.campaign.aggregate.merged_store_telemetry`), and a
        multi-thousand-trial store never has to fit in memory at once.
        Blank and truncated lines, and lines holding JSON that is not a
        record object, are skipped.
        """
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = TrialRecord.from_json(line)
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                yield record

    def completed_keys(self) -> Set[str]:
        """Keys of every trial already present in the store."""
        return set(self.load())

    def records(self) -> List[TrialRecord]:
        """The deduped records in on-disk order."""
        return list(self.load().values())
