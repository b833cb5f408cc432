"""Timer helpers built on top of the event calendar.

Both helpers are *reusable slots* over the engine's pooled calendar: arming
schedules a raw pool event (no :class:`~repro.sim.engine.EventHandle`
allocation), and the ``(slot, seq)`` pair they retain makes disarming safe
even after the event fired and its slot was recycled -- a stale sequence
number turns the cancel into a no-op, exactly like cancelling a fired
handle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator


class OneShotTimer:
    """A re-armable one-shot timer occupying a single logical slot.

    Used by the MAC (backoff / transmission-done / ACK-timeout share one
    pending event) and by :class:`PeriodicTimer`; arming allocates nothing
    beyond the engine's pooled event.  Re-arming cancels any still-pending
    shot first.
    """

    __slots__ = ("_sim", "_slot", "_seq")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._slot = -1
        self._seq = -1

    def arm(self, delay: float, callback: Callable[..., None], args: tuple = ()) -> None:
        """Fire ``callback(*args)`` after ``delay`` seconds (replacing any
        still-pending shot)."""
        sim = self._sim
        slot = self._slot
        if slot >= 0 and sim._slot_seq[slot] == self._seq:
            sim._cancel_slot(slot, self._seq)
        self._slot = sim.call_in(delay, callback, args)
        # The engine hands out sequence numbers monotonically and call_in
        # consumed exactly one, so the shot's seq is the last one issued.
        self._seq = sim._seq - 1

    def rearm(self, delay: float, callback: Callable[..., None]) -> None:
        """:meth:`arm` for a caller running inside this timer's own shot:
        that shot has fired, so there is nothing pending to cancel."""
        sim = self._sim
        self._slot = sim.call_in(delay, callback)
        self._seq = sim._seq - 1

    def disarm(self) -> None:
        """Cancel the pending shot; a no-op when it already fired."""
        if self._slot >= 0:
            self._sim._cancel_slot(self._slot, self._seq)
            self._slot = -1

    @property
    def armed(self) -> bool:
        """True while a shot is scheduled and has not fired."""
        return self._slot >= 0 and self._sim._seq_of(self._slot) == self._seq


class PeriodicTimer:
    """A repeating timer.

    The callback runs every ``interval`` seconds starting after an optional
    initial ``delay``.  Optional per-tick ``jitter`` (drawn uniformly from
    ``[-jitter, +jitter]``) desynchronises periodic protocol traffic, which is
    how real MANET implementations avoid beacon synchronisation.

    The timer is created stopped; call :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        delay: float = 0.0,
        jitter: float = 0.0,
        rng=None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._delay = float(delay)
        self._jitter = float(jitter)
        self._rng = rng
        self._shot = OneShotTimer(sim)
        self._running = False
        self.ticks = 0

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._running

    @property
    def interval(self) -> float:
        """Current firing interval in seconds."""
        return self._interval

    def start(self) -> None:
        """Arm the timer.  Starting an already running timer is a no-op."""
        if self._running:
            return
        self._running = True
        self._schedule_next(self._delay + self._next_jitter())

    def stop(self) -> None:
        """Disarm the timer."""
        self._running = False
        self._shot.disarm()

    def restart(self, interval: Optional[float] = None) -> None:
        """Stop and start again, optionally changing the interval."""
        self.stop()
        if interval is not None:
            if interval <= 0:
                raise ValueError(f"interval must be positive, got {interval}")
            self._interval = float(interval)
        self.start()

    def _next_jitter(self) -> float:
        if self._jitter == 0:
            return 0.0
        return self._rng.uniform(-self._jitter, self._jitter)

    def _schedule_next(self, delay: float) -> None:
        self._shot.arm(delay if delay > 0.0 else 0.0, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._callback()
        if self._running:
            self._schedule_next(self._interval + self._next_jitter())
