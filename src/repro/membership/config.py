"""Churn configuration: how group membership evolves during a run.

The paper fixes the member set for the whole simulation; :class:`ChurnConfig`
describes how it changes instead.  Four seeded arrival models cover the
common deployment shapes:

``"poisson"``
    Memoryless churn: membership events (a join or a leave, fair coin) arrive
    per group as a Poisson process of ``events_per_minute``.
``"onoff"``
    Session churn: every eligible node alternates between an *on* (member)
    session of mean ``mean_on_s`` and an *off* gap of mean ``mean_off_s``,
    both exponential -- the classic peer-to-peer session model.  By default
    each (node, group) pair toggles independently (*interest* churn);
    ``onoff_correlated`` switches to one session clock per node, a node's
    session end dropping *all* its subscriptions at once (*device* churn).
``"flash"``
    Flash crowd: ``flash_joiners`` non-members join each group at
    ``flash_at_s``; with ``flash_stay_s`` set they depart again after an
    exponential stay of that mean.
``"scripted"``
    An explicit, fully deterministic ``[time_s, group_index, node_id, kind]``
    schedule for hand-built regression scenarios.

``model="none"`` (the default) disables churn: membership changes only at
the initial joins, the paper's fixed member set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: Models :func:`repro.membership.churn.build_churn_model` knows how to build.
CHURN_MODELS = ("none", "poisson", "onoff", "flash", "scripted")

#: Kinds a membership event can have.
EVENT_KINDS = ("join", "leave")


@dataclass
class ChurnConfig:
    """Complete description of the membership process of one scenario."""

    #: Arrival model: one of :data:`CHURN_MODELS`.
    model: str = "none"
    #: The rate-driven models (``poisson``, ``onoff``) only generate events
    #: inside ``[start_s, stop_s]``; ``stop_s=None`` means "until the end of
    #: the run".  Explicit-instant models are exempt: ``scripted`` rows and
    #: the ``flash`` burst (``flash_at_s``, and its stay-driven departures)
    #: apply at exactly the times given, window or not.
    start_s: float = 0.0
    stop_s: Optional[float] = None

    # Poisson model: mean membership events per minute *per group*.
    events_per_minute: float = 6.0

    # On/off model: mean subscribed / unsubscribed session lengths.
    mean_on_s: float = 120.0
    mean_off_s: float = 120.0
    #: Correlated (device) variant of the on/off model: one session clock
    #: per node instead of one per (node, group); when a node's session
    #: ends it leaves every group it is subscribed to, and when it comes
    #: back it re-joins the groups it held at its last session end.
    onoff_correlated: bool = False

    # Flash-crowd model.
    flash_at_s: float = 0.0
    flash_joiners: int = 0
    #: Mean (exponential) stay of a flash joiner; ``None`` = they never leave.
    flash_stay_s: Optional[float] = None

    #: Scripted model: ``[time_s, group_index, node_id, kind]`` rows.
    script: List[List[object]] = field(default_factory=list)

    #: A leave is skipped when it would shrink the group below this floor.
    min_members: int = 1
    #: A join is skipped when the group already has this many members.
    max_members: Optional[int] = None
    #: Node ids eligible for churn; ``None`` = every node in the scenario.
    pool: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.model not in CHURN_MODELS:
            raise ValueError(
                f"unknown churn model {self.model!r}; known models: {', '.join(CHURN_MODELS)}"
            )
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.stop_s is not None and self.stop_s < self.start_s:
            raise ValueError("stop_s must not precede start_s")
        if self.model == "poisson" and self.events_per_minute <= 0:
            raise ValueError("poisson churn needs events_per_minute > 0")
        if self.model == "onoff" and (self.mean_on_s <= 0 or self.mean_off_s <= 0):
            raise ValueError("on/off churn needs positive mean session lengths")
        if self.model == "flash" and self.flash_joiners < 1:
            raise ValueError("flash churn needs flash_joiners >= 1")
        if self.min_members < 0:
            raise ValueError("min_members must be non-negative")
        if self.max_members is not None and self.max_members < self.min_members:
            raise ValueError("max_members must be at least min_members")
        for row in self.script:
            if len(row) != 4 or row[3] not in EVENT_KINDS:
                raise ValueError(
                    f"script rows must be [time_s, group_index, node_id, 'join'|'leave'], got {row!r}"
                )

    @property
    def enabled(self) -> bool:
        """True when any churn model is active."""
        return self.model != "none"

    def window(self, duration_s: float) -> tuple:
        """The ``(start, stop)`` interval churn is generated in."""
        stop = self.stop_s if self.stop_s is not None else duration_s
        return (self.start_s, min(stop, duration_s))
