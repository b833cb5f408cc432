"""Seeded churn models: arrival processes for join/leave events.

Each model turns a :class:`~repro.membership.config.ChurnConfig` into
scheduled calls against a :class:`~repro.membership.controller.MembershipController`.
Models only *propose* events -- the controller enforces the membership floor
and ceiling, skips no-op joins/leaves, and keeps its member sets, the
collectors' subscription intervals and the protocol stack in sync.

All stochastic models draw exclusively from the single ``rng`` they are given
(the scenario's ``"churn"`` stream), so a seed fully determines the event
sequence and the rest of the simulation's randomness is untouched -- running
the same scenario with churn on or off leaves every other stream identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.membership.config import ChurnConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.membership.controller import MembershipController


class ChurnModel:
    """Base class: a generator of membership events for one scenario run."""

    def start(self, controller: "MembershipController") -> None:
        """Begin proposing events against ``controller``."""
        raise NotImplementedError


class ScriptedChurn(ChurnModel):
    """Applies an explicit ``[time, group, node, kind]`` schedule verbatim."""

    def __init__(self, config: ChurnConfig):
        self.script = [tuple(row) for row in config.script]

    def start(self, controller: "MembershipController") -> None:
        for time_s, group_index, node_id, kind in self.script:
            apply = controller.join if kind == "join" else controller.leave
            controller.sim.call_at(time_s, apply, (int(group_index), int(node_id)))


class PoissonChurn(ChurnModel):
    """Memoryless churn: events arrive per group at ``events_per_minute``.

    Each arrival flips a fair coin between a join (of a uniformly random
    non-member from the pool) and a leave (of a uniformly random member).
    A proposal with no eligible candidate -- the pool is exhausted, or the
    group sits at its floor/ceiling -- is counted as skipped and the clock
    simply advances to the next arrival.
    """

    def __init__(self, config: ChurnConfig, rng):
        self.rng = rng
        self.rate_per_s = config.events_per_minute / 60.0

    def start(self, controller: "MembershipController") -> None:
        start, _ = controller.window
        for group_index in range(controller.group_count):
            self._schedule_next(controller, group_index, start)

    def _schedule_next(self, controller: "MembershipController", group_index: int,
                       not_before: float) -> None:
        at = max(not_before, controller.sim.now) + self.rng.expovariate(self.rate_per_s)
        if at >= controller.window[1]:
            return
        controller.sim.call_at(at, self._event, (controller, group_index))

    def _event(self, controller: "MembershipController", group_index: int) -> None:
        if self.rng.random() < 0.5:
            candidates = controller.join_candidates(group_index)
            if candidates:
                controller.join(group_index, self.rng.choice(candidates))
            else:
                controller.stats.events_skipped += 1
        else:
            candidates = controller.leave_candidates(group_index)
            if candidates:
                controller.leave(group_index, self.rng.choice(candidates))
            else:
                controller.stats.events_skipped += 1
        self._schedule_next(controller, group_index, controller.sim.now)


class OnOffChurn(ChurnModel):
    """Session churn: every pool node alternates on/off sessions per group.

    Initial on/off states are sampled *at the churn window start* (a
    simulation event, so joins scheduled before the window -- the scenario's
    startup joins -- are already applied): members at that instant begin
    *on* (first toggle is a leave after an exponential ``mean_on_s``),
    everyone else begins *off* (first toggle is a join after
    ``mean_off_s``).  Configure ``start_s`` at or after the scenario's join
    window, otherwise initial members are still off when sampled.  Toggles
    the controller rejects (floor/ceiling) are skipped; the session clock
    keeps running either way.

    With ``onoff_correlated`` the model runs one session clock per *node*
    (device churn rather than interest churn): a session end makes the node
    leave every group it is subscribed to, and the next session start
    re-joins the groups it held when it went off.  Only nodes that hold at
    least one subscription at the window start participate -- a device with
    no subscriptions has no "home" groups to cycle through.  Session state
    is explicit (not inferred from memberships): a leave the controller
    rejects -- floor or source protection -- keeps that one subscription
    alive through the "off" session, but never shrinks the node's home set
    or stalls its session clock.
    """

    def __init__(self, config: ChurnConfig, rng):
        self.rng = rng
        self.mean_on_s = config.mean_on_s
        self.mean_off_s = config.mean_off_s
        self.correlated = config.onoff_correlated
        #: Correlated mode: node -> groups it held at its last session end.
        self._home: dict = {}
        #: Correlated mode: node -> session state (True = on session).
        self._session_on: dict = {}

    def start(self, controller: "MembershipController") -> None:
        start, _ = controller.window
        controller.sim.call_at(start, self._arm, (controller,))

    def _arm(self, controller: "MembershipController") -> None:
        now = controller.sim.now
        if self.correlated:
            for node_id in controller.pool:
                home = [
                    group_index
                    for group_index in range(controller.group_count)
                    if controller.is_member(group_index, node_id)
                ]
                if not home:
                    continue
                self._home[node_id] = home
                self._session_on[node_id] = True
                self._schedule_device_toggle(controller, node_id, True, now)
            return
        for group_index in range(controller.group_count):
            for node_id in controller.pool:
                on = controller.is_member(group_index, node_id)
                self._schedule_toggle(controller, group_index, node_id, on, now)

    # ------------------------------------------------- correlated (device) mode
    def _schedule_device_toggle(self, controller: "MembershipController",
                                node_id: int, currently_on: bool, not_before: float) -> None:
        mean = self.mean_on_s if currently_on else self.mean_off_s
        at = max(not_before, controller.sim.now) + self.rng.expovariate(1.0 / mean)
        if at >= controller.window[1]:
            return
        controller.sim.call_at(at, self._device_toggle, (controller, node_id))

    def _device_toggle(self, controller: "MembershipController", node_id: int) -> None:
        if self._session_on.get(node_id, False):
            # Session end: the device drops every subscription it holds.
            # The home set is *merged* with the current memberships, never
            # replaced -- so neither a policy-rejected leave (which kept a
            # subscription alive) nor a policy-rejected re-join (ceiling hit
            # at the last session start, so a home group is currently
            # missing) can erode the cycle.
            memberships = [
                group_index
                for group_index in range(controller.group_count)
                if controller.is_member(group_index, node_id)
            ]
            if memberships:
                self._home[node_id] = sorted(
                    set(self._home.get(node_id, ())) | set(memberships)
                )
            for group_index in memberships:
                controller.leave(group_index, node_id)
            self._session_on[node_id] = False
        else:
            for group_index in self._home.get(node_id, ()):
                controller.join(group_index, node_id)
            self._session_on[node_id] = True
        self._schedule_device_toggle(
            controller, node_id, self._session_on[node_id], controller.sim.now
        )

    def _schedule_toggle(self, controller: "MembershipController", group_index: int,
                         node_id: int, currently_on: bool, not_before: float) -> None:
        mean = self.mean_on_s if currently_on else self.mean_off_s
        at = max(not_before, controller.sim.now) + self.rng.expovariate(1.0 / mean)
        if at >= controller.window[1]:
            return
        controller.sim.call_at(at, self._toggle, (controller, group_index, node_id))

    def _toggle(self, controller: "MembershipController", group_index: int, node_id: int) -> None:
        # Re-read the *actual* state at toggle time: a rejected proposal (or a
        # competing model) may have left the node in either state.
        if controller.is_member(group_index, node_id):
            controller.leave(group_index, node_id)
        else:
            controller.join(group_index, node_id)
        on = controller.is_member(group_index, node_id)
        self._schedule_toggle(controller, group_index, node_id, on, controller.sim.now)


class FlashCrowdChurn(ChurnModel):
    """A burst of ``flash_joiners`` joins per group at ``flash_at_s``.

    Like the scripted model, the flash instant (and the stay-driven
    departures) are explicit times and ignore the churn window.
    """

    def __init__(self, config: ChurnConfig, rng):
        self.rng = rng
        self.flash_at_s = config.flash_at_s
        self.flash_joiners = config.flash_joiners
        self.flash_stay_s = config.flash_stay_s

    def start(self, controller: "MembershipController") -> None:
        controller.sim.call_at(self.flash_at_s, self._flash, (controller,))

    def _flash(self, controller: "MembershipController") -> None:
        for group_index in range(controller.group_count):
            candidates = controller.join_candidates(group_index)
            count = min(self.flash_joiners, len(candidates))
            if count == 0:
                controller.stats.events_skipped += 1
                continue
            joiners: List[int] = sorted(self.rng.sample(candidates, count))
            for node_id in joiners:
                if controller.join(group_index, node_id) and self.flash_stay_s is not None:
                    stay = self.rng.expovariate(1.0 / self.flash_stay_s)
                    controller.sim.call_in(stay, controller.leave, (group_index, node_id))


def build_churn_model(config: ChurnConfig, rng) -> ChurnModel:
    """Instantiate the churn model described by ``config``.

    ``rng`` is only consumed by the stochastic models; ``scripted`` runs are
    fully deterministic.  Raises :class:`ValueError` for ``model="none"`` --
    a disabled config has no model to build.
    """
    if config.model == "scripted":
        return ScriptedChurn(config)
    if config.model == "poisson":
        return PoissonChurn(config, rng)
    if config.model == "onoff":
        return OnOffChurn(config, rng)
    if config.model == "flash":
        return FlashCrowdChurn(config, rng)
    raise ValueError(f"no churn model to build for {config.model!r}")
