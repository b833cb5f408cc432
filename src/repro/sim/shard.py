"""The region-sharded conservative engine.

One paper-scale run has always meant one event calendar and one spatial
index; past a few thousand nodes that single heap is the structural wall.
This module partitions the area into ``shards`` rectangular regions
and gives each region its own event heap, with a conservative
synchronisation window derived from the fleet's motion envelope
(``interference range / fleet speed bound`` -- the lookahead the
mobility models' speed bounds already guarantee).

Two execution modes, one configuration surface
(``ScenarioConfig(shards=..., shard_mode=...)``):

``"sequential"`` -- the correctness reference
    :class:`ShardedSimulator` keeps one global sequence counter but one
    heap per shard, and its run loop executes the globally minimal
    ``(time, seq)`` event across all shard heads.  The
    total event order is therefore *identical to the single-heap engine by
    construction*, for any shard count -- proven shard-count invariant on
    the hot-path golden digests the same way the medium is proven against
    its test oracles.  The medium routes every delivery into the
    receiving radio's home-shard heap, so per-shard event counts measure the
    real partition balance while results stay bit-exact.

``"process"`` -- the parallel mode, one OS process per shard
    One full scenario build per shard (identical seeded draws everywhere),
    with radios outside the shard's region disabled: a disabled radio is
    invisible to the channel, which is exactly the foreign-node semantics.
    Persistent workers -- the campaign executor's conventions: top-level
    entry point, pickled configs, the default multiprocessing start method
    -- advance in lockstep over conservative sync windows; cross-shard
    transmissions travel as exported channel records (one per transmission
    start, frozen-geometry contract) redistributed at every boundary and
    re-enacted by the receiving workers (see
    ``Medium.apply_foreign_records``).  Deterministic -- identical schedule,
    identical sorted mailboxes -- but *not* bit-equal to sequential mode:
    boundary frames are seen one window late.  That skew is the documented
    price of parallelism; the sync window bounds it.  The test suite swaps
    :func:`_drive_process` for an in-process lockstep oracle over the same
    :class:`_ShardWorker` objects and proves the two bit-identical, so the
    pipes, pickling and per-worker uid ranges change nothing.

The parallel mode does not support churn (membership control would need its
own cross-worker protocol); the sequential mode supports everything.  The
observability layer *is* supported in both: each parallel worker
instruments its own shard, ships its snapshot dict back over the result
pipe, and the driver folds them into one run-wide snapshot with
:func:`repro.obs.merge.merge_snapshots`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Simulator, SimulationError

#: Sync-window clamp (seconds).  The derived window is a tenth of the time a
#: worst-case mover needs to cross the interference range -- fine-grained
#: enough that boundary skew stays well under the geometry's own staleness
#: budget -- clamped so static fleets do not degenerate to one giant window
#: and frantic fleets do not drown in synchronisation rounds.
_MIN_WINDOW_S = 5e-3
_MAX_WINDOW_S = 0.5

#: Per-worker packet-uid stride.  Each worker process mints packet uids
#: from its own disjoint range so MAC duplicate-detection keys
#: ``(sender, uid)`` can never collide across shards when frames are
#: forwarded over a boundary.
_UID_STRIDE = 1 << 40


# --------------------------------------------------------------------- plan
@dataclass(frozen=True)
class ShardPlan:
    """The partition of the area into ``rows x cols`` rectangular regions.

    Regions are half-open cells ``[col*cell_w, (col+1)*cell_w) x [row*cell_h,
    (row+1)*cell_h)``; positions on the far edges (or marginally outside, as
    float error can produce) clamp into the last row/column, so every
    coordinate maps to exactly one shard.
    """

    shards: int
    rows: int
    cols: int
    width_m: float
    height_m: float

    @classmethod
    def build(cls, shards: int, width_m: float, height_m: float) -> "ShardPlan":
        """A near-square factorisation, long axis along the wider dimension."""
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if width_m <= 0 or height_m <= 0:
            raise ValueError("area dimensions must be positive")
        rows = int(math.sqrt(shards))
        while shards % rows:
            rows -= 1
        cols = shards // rows
        if width_m < height_m:
            rows, cols = cols, rows
        return cls(shards=shards, rows=rows, cols=cols,
                   width_m=width_m, height_m=height_m)

    @property
    def cell_width_m(self) -> float:
        return self.width_m / self.cols

    @property
    def cell_height_m(self) -> float:
        return self.height_m / self.rows

    def shard_of(self, x: float, y: float) -> int:
        """The shard whose region contains ``(x, y)`` (edges clamp inward)."""
        col = int(x * self.cols / self.width_m)
        if col >= self.cols:
            col = self.cols - 1
        elif col < 0:
            col = 0
        row = int(y * self.rows / self.height_m)
        if row >= self.rows:
            row = self.rows - 1
        elif row < 0:
            row = 0
        return row * self.cols + col

    def region_bounds(self, shard: int) -> Tuple[float, float, float, float]:
        """``(x0, y0, x1, y1)`` of one shard's region."""
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} outside [0, {self.shards})")
        row, col = divmod(shard, self.cols)
        cw = self.cell_width_m
        ch = self.cell_height_m
        return (col * cw, row * ch, (col + 1) * cw, (row + 1) * ch)

    @staticmethod
    def _axis_distance(v: float, lo: float, hi: float) -> float:
        """Distance from coordinate ``v`` to the interval ``[lo, hi]``."""
        if v < lo:
            return lo - v
        if v > hi:
            return v - hi
        return 0.0

    def region_distance(self, shard: int, x: float, y: float) -> float:
        """Distance from ``(x, y)`` to ``shard``'s region (0 inside it).

        The *halo set* of a region is exactly the points whose region
        distance is at most the transmission range: every radio there can
        interfere with (or be sensed by) a radio inside the region, and no
        radio outside the halo can.
        """
        x0, y0, x1, y1 = self.region_bounds(shard)
        dx = self._axis_distance(x, x0, x1)
        dy = self._axis_distance(y, y0, y1)
        if dx == 0.0:
            return dy
        if dy == 0.0:
            return dx
        return math.hypot(dx, dy)

    def shards_within(self, x: float, y: float, radius: float) -> Tuple[int, ...]:
        """Every shard whose region the disc ``(x, y, radius)`` intersects.

        The neighbor set of a transmission: a radio inside shard ``s`` can
        only observe a transmission from ``(x, y)`` when ``s`` is in this
        tuple (with ``radius`` = the transmission range plus any motion
        slack).  Soundness -- every point within ``radius`` of a region is
        routed to it -- is what the interest-filtered boundary exchange and
        the halo-filtered spatial indexes rely on; the Hypothesis geometry
        suite pins it over area x shard count x range.
        """
        return tuple(
            shard
            for shard in range(self.shards)
            if self.region_distance(shard, x, y) <= radius
        )

    @staticmethod
    def sync_window(
        range_m: float,
        speed_bound_mps: Optional[float],
        override: Optional[float] = None,
    ) -> float:
        """The conservative sync window: ``0.1 * range / speed``, clamped.

        A worst-case mover crosses a tenth of the interference range per
        window, so the geometry a boundary frame was exported under is still
        current (well within the motion service's drift budget) when the
        neighbouring shard applies it.  Static fleets (speed bound zero or
        unknown) get the maximum window -- nothing moves, so only event
        latency, not geometry, bounds it.
        """
        if override is not None:
            if override <= 0:
                raise ValueError("shard sync window must be positive")
            return override
        if not speed_bound_mps or speed_bound_mps <= 0:
            return _MAX_WINDOW_S
        derived = 0.1 * range_m / speed_bound_mps
        return min(max(derived, _MIN_WINDOW_S), _MAX_WINDOW_S)


# ------------------------------------------------------- sequential engine
class ShardedSimulator(Simulator):
    """The sequential multi-shard scheduler: per-shard heaps, exact order.

    One global sequence counter; ``shards`` binary heaps of calendar entries
    (see :mod:`repro.sim.engine`).  Every scheduling call lands in the
    *current shard*'s heap (:meth:`set_shard` routes it -- the medium points
    it at the receiving radio's home shard around each delivery callback),
    and the run loop pops the globally minimal ``(time, seq)`` entry across
    all shard heads.

    Because the sequence counter is global and every live event sits in
    exactly one heap, the execution order equals the single-heap engine's
    for any shard count -- sharding changes *where* an event waits, never
    *when* it fires.  This is the invariant the hot-path golden digests pin.

    The head scan costs O(shards) comparisons per event, so this mode is a
    correctness reference and a load-balance probe (``shard_events``), not
    the speedup path -- that is what the process mode is for.
    """

    is_sharded = True

    def __init__(self, shards: int, start_time: float = 0.0):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        super().__init__(start_time)
        #: Per-shard heaps; ``self._heap`` aliases the current shard's so
        #: every inherited scheduling path pushes into the right region.
        self._heaps.extend([] for _ in range(shards - 1))
        self.shards = shards
        #: Shard whose heap receives new events (see :meth:`set_shard`).
        self.current_shard = 0
        #: Callbacks executed per shard (partition-balance diagnostic).
        self.shard_events = [0] * shards

    def set_shard(self, shard: int) -> None:
        """Route subsequent scheduling calls into ``shard``'s heap."""
        self.current_shard = shard
        self._heap = self._heaps[shard]

    # ------------------------------------------------------- introspection
    def heap_sizes(self) -> List[int]:
        """Raw per-shard heap lengths (tombstones included)."""
        return [len(heap) for heap in self._heaps]

    def shard_tombstones(self) -> List[int]:
        """Per-shard tombstone counts (an O(heap) scan; sampler-rate use)."""
        return [
            sum(1 for entry in heap if entry[2] is None) for heap in self._heaps
        ]

    # ------------------------------------------------------------------ run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the simulation in global ``(time, seq)`` order across shards.

        The loop clears tombstones off every shard head, then executes the
        minimal live head.  Each head peek is O(1) and the scan is
        O(shards); correctness needs only that every live event is in
        exactly one heap and sequence numbers are globally unique.
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
        heaps = self._heaps
        pop = heapq.heappop
        shard_events = self.shard_events
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                best = None
                best_shard = -1
                for shard, heap in enumerate(heaps):
                    while heap and heap[0][2] is None:
                        pop(heap)
                        self._tombstones -= 1
                    if heap:
                        head = heap[0]
                        if best is None or head < best:
                            best = head
                            best_shard = shard
                if best is None:
                    # Every heap drained.
                    if until is not None and until > self.now:
                        self.now = until
                    break
                time = best[0]
                if until is not None and time > until:
                    # Beyond the horizon; heads were only peeked, so the
                    # calendar is already intact.
                    self.now = until
                    break
                pop(heaps[best_shard])
                self.now = time
                self.current_shard = best_shard
                self._heap = heaps[best_shard]
                callback = best[2]
                best[2] = None
                args = best[3]
                if args:
                    callback(*args)
                else:
                    callback()
                self._events_processed += 1
                shard_events[best_shard] += 1
                executed += 1
        finally:
            self._running = False


# --------------------------------------------------------- parallel workers
def _radio_envelope(config):
    """The radio/motion envelope the sync window and interest filter use."""
    from repro.mobility.config import fleet_speed_bound
    from repro.net.config import RadioConfig

    return RadioConfig(
        transmission_range_m=config.transmission_range_m,
        bitrate_bps=config.bitrate_bps,
        speed_bound_mps=fleet_speed_bound(config.mobility_config, config.max_speed_mps),
    )


@dataclass(frozen=True)
class _Interest:
    """The interest filter's inputs: geometry plus the motion envelope.

    A "tx" record is shipped to worker ``j`` only when the sender's
    interference disc -- transmission range plus per-record motion slack
    ``speed_bound * airtime``, covering radios that power up and attach
    while the foreign frame is still in flight -- intersects a region
    worker ``j``'s radios currently occupy.  "down" records carry no
    geometry and are broadcast: applying one with no matching in-flight
    batch is a provable no-op, and a crash must reach any shard still
    holding one of the sender's earlier frames.
    """

    plan: ShardPlan
    range_m: float
    speed_bound_mps: float


def _boundaries(duration_s: float, window_s: float) -> List[float]:
    """The lockstep sync boundaries: multiples of the window, then the end.

    Computed as ``i * window`` (not accumulated) so every worker agrees
    bit-exactly on each boundary.
    """
    bounds: List[float] = []
    step = 1
    t = window_s
    while t < duration_s:
        bounds.append(t)
        step += 1
        t = step * window_s
    bounds.append(duration_s)
    return bounds


def _record_sort_key(item):
    record, _origin = item
    # (time, node id, tag): a node's crash sorts after the transmissions it
    # started at the same instant, matching local execution order.
    return (record[1], record[2], 0 if record[0] == "tx" else 1)


def _route(
    outs: List[list],
    shards: int,
    interest: _Interest,
    occupancies: List[Tuple[int, ...]],
) -> Tuple[List[list], int, int, int]:
    """Redistribute one window's records; returns ``(inboxes, exchanged,
    shipped, filtered)``.

    Every record enters one globally sorted order first; each worker's
    inbox is then an interest-filtered *subsequence* of that order, so all
    workers apply their records in the same relative order -- the
    determinism contract ``Medium.apply_foreign_records`` documents.
    ``exchanged`` counts drained records once each; ``shipped``/``filtered``
    count per-destination copies delivered/suppressed (together the
    all-to-all volume, ``exchanged * (shards - 1)``).
    """
    tagged = [
        (record, origin) for origin, out in enumerate(outs) for record in out
    ]
    tagged.sort(key=_record_sort_key)
    plan = interest.plan
    range_m = interest.range_m
    speed = interest.speed_bound_mps
    occupied = [frozenset(occupancy) for occupancy in occupancies]
    inboxes = [[] for _ in range(shards)]
    shipped = 0
    for record, origin in tagged:
        if record[0] == "tx":
            # record = ("tx", start, sender, end_time, sx, sy, frame); the
            # slack covers receiver drift between this boundary and the
            # frame's end of flight (start falls in the window just closed,
            # so end - start bounds any attach-time displacement).
            radius = range_m + speed * (record[3] - record[1])
            neighbors = plan.shards_within(record[4], record[5], radius)
            for j in range(shards):
                if j == origin:
                    continue
                regions = occupied[j]
                if any(shard in regions for shard in neighbors):
                    inboxes[j].append(record)
                    shipped += 1
        else:
            for j in range(shards):
                if j != origin:
                    inboxes[j].append(record)
                    shipped += 1
    return inboxes, len(tagged), shipped, len(tagged) * (shards - 1) - shipped


class _ShardWorker:
    """One shard's full scenario: owned nodes live, foreign radios dark.

    Builds the *entire* scenario with the run's seed -- every global random
    stream draws in the exact order the unsharded build draws it -- then
    disables every radio whose home region belongs to another shard and
    starts only the owned protocol stacks.  Each process-mode worker holds
    one; the test suite's in-process lockstep oracle steps the same class,
    which is what makes the two bit-identical.
    """

    def __init__(self, config, role: int, failure_events=None):
        from repro.workload.failures import FailureSchedule
        from repro.workload.scenario import Scenario

        setup_started = time.perf_counter()
        obs_config = config.obs_config
        if obs_config.enabled and obs_config.dump_on_error_path:
            # Every worker dumps its own ring: a `.shard<k>` suffix keeps
            # concurrent crash dumps from overwriting each other.
            config = replace(
                config,
                obs_config=replace(
                    obs_config,
                    dump_on_error_path=f"{obs_config.dump_on_error_path}.shard{role}",
                ),
            )
        scenario = Scenario(config, shard_role=role)
        scenario.build()
        self.scenario = scenario
        self.sim = scenario.sim
        self.medium = scenario.medium
        self.role = role
        obs = scenario.obs
        self._obs_on = obs.enabled
        # Sync-protocol probes: record/window counts are deterministic (every
        # driver applies identical sorted mailboxes); only the stall gauge --
        # wall-clock time spent outside step(), i.e. waiting on the other
        # shards at a boundary -- is timing-dependent.
        self._c_windows = obs.counter("shard.sync.windows")
        self._c_inbox = obs.counter("shard.sync.inbox_records")
        self._c_outbox = obs.counter("shard.sync.outbox_records")
        self._g_stall = obs.gauge("shard.sync.stall_ms")
        self._span_window = obs.span("shard.window")
        self._last_step_end: Optional[float] = None
        self.medium.enable_export()
        scenario.start_stacks()
        if failure_events:
            owned_events = [
                event
                for event in failure_events
                if scenario.nodes[event.node_id].phy.shard == role
            ]
            if owned_events:
                FailureSchedule(self.sim, scenario.nodes, owned_events).start()
        #: Owned radios, for the per-boundary occupancy advertisement; a
        #: crashed radio still occupies a region (it may recover mid-window
        #: and attach to an in-flight foreign frame), so *every* owned node
        #: is tracked, enabled or not.
        self._owned_nodes = [
            node for node in scenario.nodes if node.phy.shard == role
        ]
        #: Foreign radios the shard-local index admitted: the region's halo
        #: (within transmission range of the region at t=0).  Deterministic
        #: -- a pure function of the seed and the plan.
        self.halo_size = sum(
            1
            for _, _, phy in self.medium.spatial_index.members()
            if phy.shard != role
        )
        self.setup_s = time.perf_counter() - setup_started
        if self._obs_on:
            obs.gauge("shard.halo.size").set(self.halo_size)
            # The obs facade is created inside build(), so the setup phase
            # cannot bracket itself with start()/stop(); add() records the
            # externally-timed interval.
            obs.span("shard.setup").add(self.setup_s)

    def occupancy(self) -> Tuple[int, ...]:
        """The regions this worker's radios occupy right now, plus its own.

        The interest filter's receiver side: a foreign record can only
        matter here when its interference disc reaches one of these
        regions.  Computed at a sync boundary -- the exact simulated time
        the next window's records are applied at -- so the advertisement is
        as fresh as the geometry it guards; the per-record motion slack in
        :func:`_route` covers drift after that instant.
        """
        plan = self.scenario.shard_plan
        now = self.sim.now
        regions = {self.role}
        for node in self._owned_nodes:
            regions.add(plan.shard_of(*node.phy.position(now)))
        return tuple(sorted(regions))

    def step(self, inbox: list, until: float) -> Tuple[list, Tuple[int, ...]]:
        """Apply one window's foreign records, run to the boundary, export.

        Returns ``(outbox, occupancy)``: the window's channel records and
        the occupancy advertisement the driver routes the *next* window's
        records with.
        """
        if self._obs_on:
            if self._last_step_end is not None:
                self._g_stall.set((time.perf_counter() - self._last_step_end) * 1e3)
            self._c_windows.inc()
            if inbox:
                self._c_inbox.inc(len(inbox))
        try:
            if inbox:
                self.medium.apply_foreign_records(inbox)
            with self._span_window:
                self.sim.run(until=until)
        except BaseException:
            dump_path = self.scenario.config.obs_config.dump_on_error_path
            if self._obs_on and dump_path:
                self.scenario.obs.dump_recorder(dump_path)
            raise
        out = self.medium.drain_export()
        if self._obs_on:
            if out:
                self._c_outbox.inc(len(out))
            self._last_step_end = time.perf_counter()
        return out, self.occupancy()

    def finish(self) -> Dict[str, object]:
        """The shard's mergeable result payload (picklable)."""
        import resource

        from repro.net.spatial import region_census

        scenario = self.scenario
        plan = scenario.shard_plan
        census = region_census(
            self.medium.spatial_index, plan.shard_of, self.sim.now
        )
        owned = sorted(
            node.node_id
            for node in scenario.nodes
            if node.phy.shard == self.role
        )
        for collector in scenario.collectors.values():
            collector.on_delivery = None
        payload = {
            "role": self.role,
            "owned": owned,
            "collectors": scenario.collectors,
            "protocol_stats": scenario._aggregate_protocol_stats(),
            "events_processed": self.sim.events_processed,
            # Only owned members joined here, so only they are reported.
            "goodput": scenario._goodput_by_group(),
            "foreign": dict(self.medium.foreign_stats),
            "census": census,
            "halo": self.halo_size,
            # Wall-clock diagnostics (never compared across runs): build +
            # stack-start time, and the worker process's peak RSS.
            # ru_maxrss is kilobytes on Linux.
            "setup_s": self.setup_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self._obs_on:
            # Publish the shard's derived metrics, then ship the telemetry
            # as plain picklable data: the snapshot dict, the raw recorder
            # events and the *full* fan-out totals (the merged top-N is only
            # meaningful after summing across shards).
            scenario._publish_telemetry()
            payload["obs_snapshot"] = scenario.obs.snapshot()
            payload["recorder_events"] = scenario.obs.recorder.events()
            payload["fanout_totals"] = [
                [node_id, total]
                for node_id, total in self.medium.top_fanout(len(scenario.nodes))
            ]
        return payload


def _shard_worker_main(conn, config, role: int, failure_events) -> None:
    """Process-mode worker entry point (top-level: campaign conventions).

    Every reply is ``("ok", value)``; a worker that raises sends
    ``("error", traceback text)`` instead and exits, so the driver can fail
    fast with the worker's own message.
    """
    import repro.net.packet as packet_module

    # Disjoint per-worker uid ranges; see _UID_STRIDE.
    packet_module._packet_uid_counter = itertools.count((role + 1) * _UID_STRIDE)
    try:
        worker = _ShardWorker(config, role, failure_events)
        while True:
            message = conn.recv()
            if message[0] == "step":
                conn.send(("ok", worker.step(message[2], message[1])))
            else:
                conn.send(("ok", worker.finish()))
                break
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _exchange(connections, messages) -> list:
    """Send each worker its message, then collect the replies in role order.

    A worker that raised has sent its traceback instead of a reply, and one
    that died leaves only EOF; the first such failure is raised as a
    :class:`SimulationError` naming the shard.
    """
    for conn, message in zip(connections, messages):
        try:
            conn.send(message)
        except BrokenPipeError:  # the worker is gone; read its reply or EOF
            pass
    replies = []
    for role, conn in enumerate(connections):
        try:
            status, value = conn.recv()
        except EOFError:
            status, value = "error", "the worker exited without replying"
        if status == "error":
            raise SimulationError(f"shard {role} worker failed:\n{value}")
        replies.append(value)
    return replies


# --------------------------------------------------------- telemetry merge
def _merge_telemetry_snapshots(payloads) -> Dict[str, object]:
    """Fold the workers' snapshot dicts (shipped over the result pipes)."""
    from repro.obs.config import TOP_FANOUT_N
    from repro.obs.merge import interleave_events, merge_snapshots, merge_top_fanout

    telemetry = merge_snapshots(
        [payload["obs_snapshot"] for payload in payloads],
        labels=[f"shard={payload['role']}" for payload in payloads],
    )
    telemetry["recorder_events"] = interleave_events(
        [payload["recorder_events"] for payload in payloads]
    )
    telemetry["top_fanout"] = merge_top_fanout(
        [payload["fanout_totals"] for payload in payloads],
        TOP_FANOUT_N,
    )
    return telemetry


def _drive_process(
    config, failure_events, bounds, interest
) -> Tuple[List[dict], Tuple[int, int, int], Optional[dict]]:
    context = multiprocessing.get_context()
    connections = []
    processes = []
    failed = True
    try:
        for role in range(config.shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, config, role, failure_events),
                daemon=True,
            )
            process.start()
            child_conn.close()
            connections.append(parent_conn)
            processes.append(process)
        inboxes: List[list] = [[] for _ in range(config.shards)]
        exchanged = shipped = filtered = 0
        for until in bounds:
            stepped = _exchange(
                connections, [("step", until, inbox) for inbox in inboxes]
            )
            outs = [out for out, _ in stepped]
            occupancies = [occupancy for _, occupancy in stepped]
            inboxes, count, sent, cut = _route(
                outs, config.shards, interest, occupancies
            )
            exchanged += count
            shipped += sent
            filtered += cut
        payloads = _exchange(connections, [("finish",)] * config.shards)
        failed = False
    finally:
        for conn in connections:
            conn.close()
        for process in processes:
            if failed:
                # A forked worker holds inherited parent pipe ends, so
                # closing ours never wakes one blocked in recv(): stop the
                # survivors instead of waiting out the join.
                process.terminate()
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung-worker cleanup
                process.terminate()
                process.join(timeout=5)
    telemetry = (
        _merge_telemetry_snapshots(payloads)
        if config.obs_config.enabled
        else None
    )
    return payloads, (exchanged, shipped, filtered), telemetry


# ------------------------------------------------------------ result merge
def _merge_collectors(config, payloads) -> Dict[int, "object"]:
    from repro.metrics.collectors import DeliveryCollector, MemberDelivery

    merged = {index: DeliveryCollector() for index in range(config.group_count)}
    for payload in payloads:
        for group_index, collector in payload["collectors"].items():
            target = merged[group_index]
            target._sent_at.update(collector._sent_at)
            # Each member joined in the one worker that owns it.
            target._intervals.update(collector._intervals)
            for member, record in collector._members.items():
                into = target._members.setdefault(
                    member, MemberDelivery(member=member)
                )
                for source, marks in record.marks.items():
                    into.marks[source] = bytearray(map(max, itertools.zip_longest(
                        into.marks.get(source, b""), marks, fillvalue=0)))
                into.via_routing += record.via_routing
                into.via_gossip += record.via_gossip
    return merged


def _merge_worker_results(
    config, payloads, *, mode, window_s, rounds, exchange, telemetry=None
):
    from repro.membership.summary import combine_summaries
    from repro.workload.scenario import ScenarioResult

    collectors = _merge_collectors(config, payloads)
    group_summaries = {
        group_index: collector.summary()
        for group_index, collector in collectors.items()
    }
    summary = (
        group_summaries[0]
        if config.group_count == 1
        else combine_summaries(group_summaries)
    )
    protocol_stats: Dict[str, float] = {}
    goodput_by_group: Dict[int, Dict[int, float]] = {}
    foreign: Dict[str, int] = {}
    census: Dict[int, int] = {}
    events_total = 0
    for payload in payloads:
        for name, value in payload["protocol_stats"].items():
            protocol_stats[name] = protocol_stats.get(name, 0) + value
        for group_index, values in payload["goodput"].items():
            goodput_by_group.setdefault(group_index, {}).update(values)
        for name, value in payload["foreign"].items():
            foreign[name] = foreign.get(name, 0) + value
        for region, count in payload["census"].items():
            census[region] = census.get(region, 0) + count
        events_total += payload["events_processed"]
    exchanged, shipped, filtered = exchange
    shard_stats = {
        "mode": mode,
        "shards": config.shards,
        "window_s": window_s,
        "sync_rounds": rounds,
        "records_exchanged": exchanged,
        # Interest-filter accounting (per-destination copies; all three are
        # deterministic, so they take part in the oracle ≡ process law).
        "records_shipped": shipped,
        "records_filtered": filtered,
        "events_by_shard": {
            payload["role"]: payload["events_processed"] for payload in payloads
        },
        "owned_by_shard": {
            payload["role"]: len(payload["owned"]) for payload in payloads
        },
        "halo_by_shard": {
            payload["role"]: payload["halo"] for payload in payloads
        },
        # Wall-clock fields -- excluded from every cross-mode comparison.
        "setup_s_by_shard": {
            payload["role"]: payload["setup_s"] for payload in payloads
        },
        "peak_rss_kb_by_shard": {
            payload["role"]: payload["peak_rss_kb"] for payload in payloads
        },
        "final_census": census,
        "foreign": foreign,
    }
    return ScenarioResult(
        config=config,
        summary=summary,
        member_counts=dict(summary.member_counts),
        goodput_by_member=goodput_by_group.get(0, {}),
        packets_sent=sum(c.packets_sent for c in collectors.values()),
        protocol_stats=protocol_stats,
        events_processed=events_total,
        group_summaries=group_summaries,
        goodput_by_group=goodput_by_group,
        membership_events=0,
        telemetry=telemetry,
        shard_stats=shard_stats,
    )


# ------------------------------------------------------------------ driver
def run_sharded(config, failure_events=None):
    """Run ``config`` under the parallel shard mode and merge the results.

    The entry point behind ``run_scenario`` for ``shard_mode="process"``;
    call it directly to inject a failure schedule (``failure_events``:
    iterable of :class:`repro.workload.failures.FailureEvent`, applied by
    each node's owning worker).
    """
    if config.shards < 2:
        raise ValueError("run_sharded needs shards >= 2")
    if config.shard_mode != "process":
        raise ValueError(f"unknown parallel shard mode {config.shard_mode!r}")
    if config.churn_config.enabled:
        raise ValueError(
            "the parallel shard mode does not support churn "
            "(membership control would need its own cross-worker protocol); "
            "use shard_mode='sequential'"
        )
    radio = _radio_envelope(config)
    window_s = ShardPlan.sync_window(
        radio.transmission_range_m,
        radio.speed_bound_mps,
        override=config.shard_window_s,
    )
    bounds = _boundaries(config.duration_s, window_s)
    interest = _Interest(
        plan=ShardPlan.build(
            config.shards, config.area_width_m, config.area_height_m
        ),
        range_m=radio.transmission_range_m,
        # Exact for every fleet ScenarioConfig builds (fleet_speed_bound).
        speed_bound_mps=radio.speed_bound_mps,
    )
    payloads, exchange, telemetry = _drive_process(
        config, failure_events, bounds, interest
    )
    if telemetry is not None:
        # Annotated here, after the driver, so the oracle ≡ process
        # telemetry-equality law covers the metadata too.
        telemetry["merged"] = {"shards": config.shards}
        # Driver-side counters (the workers never see what was routed around
        # them); deterministic, hence inside the equality law.
        telemetry["metrics"]["shard.sync.records_shipped"] = exchange[1]
        telemetry["metrics"]["shard.sync.records_filtered"] = exchange[2]
    return _merge_worker_results(
        config,
        payloads,
        mode=config.shard_mode,
        window_s=window_s,
        rounds=len(bounds),
        exchange=exchange,
        telemetry=telemetry,
    )
