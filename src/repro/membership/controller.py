"""The membership controller: the one path by which a node joins or leaves.

Every scenario builds one :class:`MembershipController`.  It schedules the
initial members' startup joins and, when a churn model is configured, sits
between that model (which *proposes* joins and leaves) and the protocol
stack (which must react to them).  For every accepted event it

1. updates the current member set of the group, which it alone writes,
2. opens/closes the member's subscription interval in the group's
   :class:`~repro.metrics.collectors.DeliveryCollector`, the one record of
   *since when* (so delivery ratios only charge a member for packets sent
   while it was subscribed), and
3. invokes the scenario-provided ``join_hook`` / ``leave_hook`` that drives
   the actual protocol machinery (MAODV join/prune, gossip state reset,
   sink attachment).

The controller also enforces the policy knobs -- the eligible ``pool``, the
``min_members`` floor, the ``max_members`` ceiling and the ``protected``
nodes (multicast sources, which must stay subscribed for the paper's
delivery accounting to make sense) -- so every churn model gets them for
free.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

if TYPE_CHECKING:  # churn models are import-on-use: only churn runs build one
    from repro.membership.churn import ChurnModel

#: Hook signature: ``(group_index, node_id, initial)``; ``initial`` is True
#: for the scenario's startup joins and False for mid-run churn events.
MembershipHook = Callable[[int, int, bool], None]


class MembershipStats:
    """Counters of applied and rejected membership events."""

    def __init__(self) -> None:
        #: Startup joins of the scenario's initial members (not churn).
        self.initial_joins = 0
        #: Mid-run joins / leaves applied by the churn model.
        self.joins_applied = 0
        self.leaves_applied = 0
        self.events_skipped = 0

    @property
    def churn_events(self) -> int:
        """Mid-run membership events applied (initial joins excluded)."""
        return self.joins_applied + self.leaves_applied


class MembershipController:
    """Applies membership events proposed by a churn model to one scenario."""

    def __init__(
        self,
        sim,
        collectors: Mapping[int, object],
        *,
        pool: Sequence[int],
        window: Tuple[float, float],
        churn: Optional[ChurnModel] = None,
        min_members: int = 1,
        max_members: Optional[int] = None,
        protected: Optional[Mapping[int, Iterable[int]]] = None,
        join_hook: Optional[MembershipHook] = None,
        leave_hook: Optional[MembershipHook] = None,
    ):
        self.sim = sim
        #: group index -> the group's delivery collector (one per group).
        self._collectors = collectors
        #: group index -> current members; only this controller writes it.
        self._members: Dict[int, Set[int]] = {group_index: set() for group_index in collectors}
        self.churn = churn
        self.pool = sorted(set(pool))
        self._pool_set = frozenset(self.pool)
        self.window = window
        self.min_members = min_members
        self.max_members = max_members
        # ``protected`` is per group: a node sourcing group 0 can still churn
        # in and out of group 1.
        self._protected: Dict[int, frozenset] = {
            group_index: frozenset(nodes)
            for group_index, nodes in (protected or {}).items()
        }
        self._join_hook = join_hook
        self._leave_hook = leave_hook
        self.stats = MembershipStats()

    @property
    def group_count(self) -> int:
        """Number of groups under management."""
        return len(self._members)

    def is_member(self, group_index: int, node_id: int) -> bool:
        """True while ``node_id`` is currently subscribed to the group."""
        return node_id in self._members[group_index]

    def members(self, group_index: int) -> List[int]:
        """Current members of the group, sorted."""
        return sorted(self._members[group_index])

    def start(self) -> None:
        """Arm the churn model (if any)."""
        if self.churn is not None:
            self.churn.start(self)

    # ------------------------------------------------------------- candidates
    def join_candidates(self, group_index: int) -> List[int]:
        """Pool nodes that could join the group right now (sorted)."""
        members = self._members[group_index]
        if self.max_members is not None and len(members) >= self.max_members:
            return []
        return [n for n in self.pool if n not in members]

    def leave_candidates(self, group_index: int) -> List[int]:
        """Members that could leave the group right now (sorted).

        Empty while the group sits at its ``min_members`` floor; protected
        nodes (sources) never appear.
        """
        if len(self._members[group_index]) <= self.min_members:
            return []
        protected = self._protected.get(group_index, frozenset())
        return [n for n in self.members(group_index) if n not in protected]

    # ----------------------------------------------------------------- events
    def schedule_initial_join(self, group_index: int, node_id: int, at: float) -> None:
        """Schedule an initial member's startup join at ``at``.

        The join opens the member's first subscription interval, so the
        member is charged only for packets sent from ``at`` on.
        """
        self.sim.call_at(at, self._apply_join, (group_index, node_id, True))

    def join(self, group_index: int, node_id: int) -> bool:
        """Apply a mid-run join; returns False when rejected or a no-op."""
        return self._apply_join(group_index, node_id, False)

    def leave(self, group_index: int, node_id: int) -> bool:
        """Apply a mid-run leave; returns False when rejected or a no-op."""
        members = self._members[group_index]
        if (
            node_id in self._protected.get(group_index, frozenset())
            or node_id not in members
            or len(members) <= self.min_members
        ):
            self.stats.events_skipped += 1
            return False
        members.remove(node_id)
        self._collectors[group_index].close_interval(node_id, self.sim.now)
        if self._leave_hook is not None:
            self._leave_hook(group_index, node_id, False)
        self.stats.leaves_applied += 1
        return True

    def _apply_join(self, group_index: int, node_id: int, initial: bool) -> bool:
        members = self._members[group_index]
        if node_id in members or (not initial and (
            node_id not in self._pool_set
            or (self.max_members is not None and len(members) >= self.max_members)
        )):
            self.stats.events_skipped += 1
            return False
        members.add(node_id)
        self._collectors[group_index].open_interval(node_id, self.sim.now)
        if self._join_hook is not None:
            self._join_hook(group_index, node_id, initial)
        if initial:
            self.stats.initial_joins += 1
        else:
            self.stats.joins_applied += 1
        return True
