"""Periodic engine probes (enabled mode only).

The :class:`EngineSampler` rides the simulation calendar itself: every
:data:`SAMPLE_INTERVAL_S` simulated seconds it reads the engine's throughput
and calendar-health introspection properties, publishes them as gauges
under ``engine.calendar.*`` and appends one ``"engine.sample"`` event to
the flight recorder.  Events/sec is a *wall-clock* rate: the delta of
``events_processed`` over the delta of ``time.perf_counter()`` between
consecutive samples.

The sampler is only constructed when obs is enabled, so a disabled run's
calendar (and therefore its ``events_processed`` golden digest) is
bit-identical to an uninstrumented build.  An instrumented run processes
slightly more events than a plain one -- the sampler's own ticks -- which
is the documented, accepted cost of enabling telemetry.

On the sequential :class:`~repro.sim.shard.ShardedSimulator` every sample
additionally publishes per-shard calendar health under
``engine.shard.*{shard=k}`` -- heap depth, executed-event share and
tombstone ratio per region heap, plus the cumulative head-scan cost of the
O(shards) minimum-head search -- so partition balance is recorded, not
inferred.  Everything per-shard is simulation-deterministic (only
``events_per_sec`` is wall clock).
"""

from __future__ import annotations

import time

#: Simulated seconds between two engine samples.
SAMPLE_INTERVAL_S = 1.0


class EngineSampler:
    """Samples engine throughput and calendar health on a fixed sim period."""

    def __init__(self, sim, obs):
        self.sim = sim
        self.obs = obs
        self.samples = 0
        registry = obs.registry
        self._g_events_per_sec = registry.gauge("engine.calendar.events_per_sec")
        self._g_heap_depth = registry.gauge("engine.calendar.heap_depth")
        self._g_tombstones = registry.gauge("engine.calendar.tombstones")
        self._g_tombstone_ratio = registry.gauge("engine.calendar.tombstone_ratio")
        self._g_compactions = registry.gauge("engine.calendar.compactions")
        self._shard_gauges = None
        if getattr(sim, "is_sharded", False):
            self._g_head_scan = registry.gauge("engine.shard.head_scan_comparisons")
            self._shard_gauges = [
                (
                    registry.gauge(f"engine.shard.heap_depth{{shard={shard}}}"),
                    registry.gauge(f"engine.shard.events{{shard={shard}}}"),
                    registry.gauge(f"engine.shard.tombstone_ratio{{shard={shard}}}"),
                )
                for shard in range(sim.shards)
            ]
        self._last_events = 0
        self._last_wall = 0.0
        self._running = False

    def start(self) -> None:
        """Arm the first sample tick (idempotent)."""
        if self._running:
            return
        self._running = True
        self._last_events = self.sim.events_processed
        self._last_wall = time.perf_counter()
        self.sim.call_in(SAMPLE_INTERVAL_S, self._tick)

    def _tick(self) -> None:
        sim = self.sim
        wall = time.perf_counter()
        events = sim.events_processed
        wall_delta = wall - self._last_wall
        events_per_sec = (
            (events - self._last_events) / wall_delta if wall_delta > 0 else 0.0
        )
        self._last_events = events
        self._last_wall = wall

        heap_depth = sim.heap_size
        tombstones = sim.tombstones
        tombstone_ratio = tombstones / heap_depth if heap_depth else 0.0
        compactions = sim.compactions

        self._g_events_per_sec.set(events_per_sec)
        self._g_heap_depth.set(heap_depth)
        self._g_tombstones.set(tombstones)
        self._g_tombstone_ratio.set(tombstone_ratio)
        self._g_compactions.set(compactions)
        self.samples += 1

        self.obs.record(
            "engine.sample",
            sim.now,
            events_per_sec=round(events_per_sec, 3),
            heap_depth=heap_depth,
            tombstones=tombstones,
            compactions=compactions,
        )
        if self._shard_gauges is not None:
            depths = sim.heap_sizes()
            shard_tombstones = sim.shard_tombstones()
            shard_events = sim.shard_events
            self._g_head_scan.set(events * sim.shards)
            for shard, (g_depth, g_events, g_ratio) in enumerate(self._shard_gauges):
                depth = depths[shard]
                g_depth.set(depth)
                g_events.set(shard_events[shard])
                g_ratio.set(shard_tombstones[shard] / depth if depth else 0.0)
            self.obs.record(
                "engine.shard.sample",
                sim.now,
                heap_depths=depths,
                shard_events=list(shard_events),
            )
        self.sim.call_in(SAMPLE_INTERVAL_S, self._tick)
