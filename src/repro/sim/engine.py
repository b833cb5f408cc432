"""The discrete-event simulation core.

The :class:`Simulator` keeps a priority queue (a binary heap) of scheduled
callbacks keyed by ``(time, sequence_number)``.  The sequence number breaks
ties between events scheduled for the same instant so that execution order is
deterministic and matches scheduling order, which is important for
reproducibility of the protocols built on top.

Internals: the entry calendar
-----------------------------
Scheduling is the single hottest operation of a paper-scale run (about one
schedule per event fired), so an event is exactly one object: the heap orders
self-contained ``[time, seq, callback, args]`` lists.  ``seq`` is globally
unique, so list comparison is decided by the first two fields in C and never
reaches the callback.

:meth:`Simulator.call_in` / :meth:`Simulator.call_at` are the whole
scheduling API: they file ``callback(*args)`` and return its entry as an
opaque token for :meth:`Simulator.cancel`.  Fire-and-forget callers ignore
the token; whoever may need to take the event back keeps it.

An entry is *live* iff ``entry[2] is not None``.  The run loop clears the
callback field before it makes the call, so an entry reads as fired inside
its own callback, and cancellation is O(1) and lazy: :meth:`Simulator.cancel`
clears the same field and the entry stays in the heap as a *tombstone* that
is discarded when it surfaces.  A tombstone counter triggers a periodic
in-place compaction so a cancel-heavy workload cannot grow the heap
unboundedly.  That in-place clearing is why an entry is a list and not a
tuple: whoever kept the entry -- a timer, the MAC -- holds the very object
the heap holds, entries are never reused, and so a stale cancel of a fired
or cancelled event is a no-op by construction rather than by bookkeeping.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: Compaction policy: rebuild the heap in place once tombstones outnumber
#: live entries and there are enough of them for the rebuild to pay off.
_COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Simulator:
    """A sequential discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_in(1.5, fired.append, ("a",))
    >>> _ = sim.call_in(0.5, fired.append, ("b",))
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    #: Class-level flag: the region-sharded engine
    #: (:class:`repro.sim.shard.ShardedSimulator`) overrides this with
    #: ``True``.  Consumers (the medium's delivery routing) key off it with
    #: one ``getattr``-free attribute read instead of an isinstance check.
    is_sharded = False

    def __init__(self, start_time: float = 0.0):
        #: Current simulation time in seconds.  A plain attribute (not a
        #: property) because protocol hot paths read it millions of times;
        #: treat it as read-only outside the engine.
        self.now = float(start_time)
        #: Heap of ``[time, seq, callback, args]`` entries (see the module
        #: docstring); new events are pushed here.
        self._heap: List[list] = []
        #: Every heap of the calendar -- just the one here; the sharded
        #: engine adds one per region.  Compaction, ``clear`` and the size
        #: probes walk this list.
        self._heaps: List[List[list]] = [self._heap]
        self._seq = 0
        #: Cancelled entries still sitting in the heap.
        self._tombstones = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        #: Times the heap was compacted to shed tombstones (diagnostic).
        self.compactions = 0

    # ------------------------------------------------------------------ time
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled and still live."""
        return self.heap_size - self._tombstones

    # ------------------------------------------------------- introspection
    @property
    def heap_size(self) -> int:
        """Raw heap length, tombstones included (calendar health probe)."""
        return sum(map(len, self._heaps))

    @property
    def tombstones(self) -> int:
        """Cancelled entries still sitting in the heap."""
        return self._tombstones

    # -------------------------------------------------------------- schedule
    def call_in(self, delay: float, callback: Callable[..., None], args: tuple = ()) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the calendar entry as an opaque token: fire-and-forget
        callers ignore it, and whoever may need to take the event back keeps
        it for :meth:`cancel`.
        """
        if not delay >= 0:  # spelled so that NaN is rejected too
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def call_at(self, time: float, callback: Callable[..., None], args: tuple = ()) -> list:
        """Schedule ``callback(*args)`` to run at absolute simulation ``time``."""
        if not time >= self.now:  # spelled so that NaN is rejected too
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [float(time), seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    # ---------------------------------------------------------------- cancel
    def cancel(self, entry: list) -> bool:
        """O(1) lazy cancellation of the event ``entry`` stands for.

        A no-op (returning False) when the event already fired or was
        cancelled.  The entry stays in its heap as a tombstone until it
        surfaces or the heap is compacted.
        """
        if entry[2] is None:
            return False
        entry[2] = None
        self._tombstones += 1
        tombstones = self._tombstones
        if tombstones >= _COMPACT_MIN_TOMBSTONES and tombstones * 2 > len(self._heap):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstones from the calendar, in place.

        In place matters: ``run`` holds a local reference to the heap list,
        and a callback may trigger compaction mid-run.
        """
        for heap in self._heaps:
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapq.heapify(heap)
        self._tombstones = 0
        self.compactions += 1

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would advance past this time.  Events at
            exactly ``until`` are executed.  When omitted the simulation runs
            until the event queue drains.
        max_events:
            Optional safety valve limiting the number of callbacks executed
            in this call.
        """
        if until is not None:
            until = float(until)
            if until != until:
                raise SimulationError("cannot run until t=nan")
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                entry = pop(heap)
                callback = entry[2]
                if callback is None:
                    # Tombstone left behind by a lazy cancellation.
                    self._tombstones -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # Beyond the horizon: put the event back and stop.
                    heapq.heappush(heap, entry)
                    self.now = until
                    break
                self.now = time
                # Fired from here on: whoever kept the entry sees it dead
                # inside the callback, so a cancel from there is a no-op.
                entry[2] = None
                args = entry[3]
                if args:
                    callback(*args)
                else:
                    callback()
                self._events_processed += 1
                executed += 1
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the running simulation after the current event completes."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched).

        Outstanding entries read as dead afterwards, so cancelling one is a
        no-op.
        """
        for heap in self._heaps:
            for entry in heap:
                entry[2] = None
            del heap[:]
        self._tombstones = 0
