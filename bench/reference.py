"""The reference loop: how fast is this machine right now?

A fixed, stdlib-only miniature of what the simulator does all day -- pop the
earliest entry of a heap, touch a list and a dict, allocate a tuple, push a
successor.  Its rate, over the rate it reached on the container that defined
the benchmark, is one *reading* of the machine's speed, and calibrated time
is host time multiplied by the speed it was spent at.

Why: the benchmark's home is a 2-vCPU guest on a shared host whose speed
moves between 0.8 and 1.5 M loop iterations/s from one fraction of a second to
the next and sits low for minutes at a time, hitting every Python process
alike.  A reading taken before or after a region says little about the speed
*during* it.  So :class:`SpeedSampler` reads the speed *inside* the region: an
interval timer interrupts it for a slice of the loop (:data:`RUN_SLICES`,
:data:`SETUP_SLICES`), the slices' own time is taken off the clocks, and the
mean of the slice rates -- evenly spaced in host time, so the mean is the
region's work in nominal seconds over its host seconds -- is the speed the
region ran at.

Measured, one seed throughout so only the machine varies (spread =
interquartile range over median):

* 13 runs of ``mover100_fast``: raw wall time spread 18 %; calibrated by a
  reading before and one after, 12 %; by the sampler (slices of 8,000), 4.9 %,
  range 8 % against 36 % raw; slice rate and wall time correlate at -0.98.
  Nine more runs each gave 4.9 % with slices of 8,000 and 2.3 % with 16,000;
  12,000 keeps the sampler's share of the run near a tenth.
* 40 set-ups of ``paper40_maodv``: raw 31 %; calibrated by a 0.2 s reading
  right after, 18 % (and the set-up times then *looked* only 0.6 as sensitive
  to the speed as the loop, because the reading came too late); by the
  sampler, 7 %, correlation -0.91, sensitivity 0.93.

**Frozen.**  The loop, the slice and the nominal rate are part of the
definition of every calibrated number: edit them and no result file compares
with an older one.  This module must never import ``repro``.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

#: Loop iterations per host second, in slices of 12,000, on the defining
#: container in its faster stretches (2026-09-29).  Speed factor 1.0 means "as
#: fast as that".
NOMINAL_RATE = 1_200_000.0

#: (iterations per slice, seconds between slices): about a tenth of the
#: sampled region's host time either way.  A run gets a long slice, which is a
#: steadier reading; set-up lasts 0.2 s and needs them close together.
RUN_SLICES = (12_000, 0.1)
SETUP_SLICES = (2_000, 0.02)


def reference_rate(iterations: int) -> float:
    """Reference-loop iterations per host second, measured now."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    state = [0] * 256
    table: dict = {}
    seq = 0
    for key in range(64):
        push(heap, (key * 0.01, seq, key))
        seq += 1
    started = time.perf_counter()
    for _step in range(iterations):
        now, _seq, key = pop(heap)
        state[key & 255] += 1
        table[key & 4095] = (now, key)
        push(heap, (now + 0.001 * ((key * 7919) % 97 + 1), seq, (key * 31 + 7) & 0xFFFF))
        seq += 1
    return iterations / (time.perf_counter() - started)


class SpeedSampler:
    """Reads the machine's speed between ``start()`` and ``stop()`` (main thread only).

    ``SIGALRM`` fires every ``interval_s``; Python runs the handler between
    two bytecodes of whatever the process is executing, and the handler times
    one slice of the reference loop.  One more slice runs at ``stop()``, so
    even a region shorter than the interval has a reading.  ``wall_s`` and
    ``cpu_s`` are what the slices cost: subtract them from the region's own
    clocks.
    """

    def __init__(self, slices: Tuple[int, float]) -> None:
        self.iterations, self.interval_s = slices
        self.rates: List[float] = []  # per slice: iterations per wall second
        self.cpu_rates: List[float] = []  # ... and per CPU second of this process
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._running = False

    def _slice(self, _signum=None, _frame=None) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.rates.append(reference_rate(self.iterations))
        slice_cpu_s = time.process_time() - cpu
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += slice_cpu_s
        self.cpu_rates.append(self.iterations / slice_cpu_s)

    def start(self) -> None:
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        """Disarm the timer and take the last slice; does nothing unless running."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def speed(self) -> float:
        """The speed factor the region's wall time ran at: mean slice rate over nominal."""
        return sum(self.rates) / len(self.rates) / NOMINAL_RATE

    def cpu_speed(self) -> float:
        """The same for its CPU time, which a descheduled process does not spend."""
        return sum(self.cpu_rates) / len(self.cpu_rates) / NOMINAL_RATE
