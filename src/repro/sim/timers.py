"""Timer helpers built on top of the event calendar.

Both helpers keep the calendar entry of their pending shot (see
:mod:`repro.sim.engine`): arming files one entry with ``call_in``, and
because entries are never reused, disarming after the shot fired is a
no-op -- exactly like cancelling any fired entry.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator


class OneShotTimer:
    """A re-armable one-shot timer: at most one pending event.

    For a deadline that is pushed back or withdrawn; arming allocates
    nothing beyond the calendar entry.
    Re-arming cancels any still-pending shot first.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._entry: Optional[list] = None

    def arm(self, delay: float, callback: Callable[..., None], args: tuple = ()) -> None:
        """Fire ``callback(*args)`` after ``delay`` seconds (replacing any
        still-pending shot)."""
        sim = self._sim
        entry = self._entry
        if entry is not None and entry[2] is not None:
            sim.cancel(entry)
        self._entry = sim.call_in(delay, callback, args)

    def disarm(self) -> None:
        """Cancel the pending shot; a no-op when it already fired."""
        entry = self._entry
        if entry is not None:
            self._sim.cancel(entry)
            self._entry = None

    @property
    def armed(self) -> bool:
        """True while a shot is scheduled and has not fired."""
        entry = self._entry
        return entry is not None and entry[2] is not None


class PeriodicTimer:
    """A repeating timer.

    The callback runs every ``interval`` seconds starting after an optional
    initial ``delay``.  Optional per-tick ``jitter`` (drawn uniformly from
    ``[-jitter, +jitter]``) desynchronises periodic protocol traffic, which is
    how real MANET implementations avoid beacon synchronisation.

    The timer is created stopped; call :meth:`start`.  It keeps the calendar
    entry of its next tick itself, so a tick re-arms with one ``call_in``.
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
        if not interval > 0:  # spelled so that NaN is rejected too
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
        #: Calendar entry of the next tick, or ``None`` while stopped.
        self._entry: Optional[list] = None
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
        delay = self._delay
        jitter = self._jitter
        if jitter:
            # ``rng.uniform(-jitter, jitter)`` spelled out: the same float.
            delay += -jitter + (jitter - -jitter) * self._rng.random()
        self._entry = self._sim.call_in(delay if delay > 0.0 else 0.0, self._fire)

    def stop(self) -> None:
        """Disarm the timer."""
        self._running = False
        entry = self._entry
        if entry is not None:
            self._sim.cancel(entry)
            self._entry = None

    def restart(self, interval: Optional[float] = None) -> None:
        """Stop and start again, optionally changing the interval."""
        self.stop()
        if interval is not None:
            if not interval > 0:
                raise ValueError(f"interval must be positive, got {interval}")
            self._interval = float(interval)
        self.start()

    def _fire(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._callback()
        if self._running:
            # The next tick, as :meth:`start` arms it, in this frame.
            delay = self._interval
            jitter = self._jitter
            if jitter:
                delay += -jitter + (jitter - -jitter) * self._rng.random()
            sim = self._sim
            entry = self._entry
            if entry[2] is not None:
                # The callback restarted the timer: this tick replaces that one.
                sim.cancel(entry)
            self._entry = sim.call_in(delay if delay > 0.0 else 0.0, self._fire)
