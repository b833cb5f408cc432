"""Layer kernels: short direct drives of one layer's public API.

Each kernel builds its input from the invocation's ``--seed``, drives one
layer through its public entry points and returns a rate in operations per
host second.  ``sim.engine.kernel_events_per_s`` doubles as the machine
calibration score every result file carries.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable, Dict

#: Repeats per kernel; the median is reported.
_REPEATS = 3


class _Radio:
    """Just enough of a ``Phy`` for the spatial index: node, id, position."""

    def __init__(self, node_id: int, mobility):
        self.node = self
        self.node_id = node_id
        self.mobility = mobility
        self.enabled = True

    def position(self, at_time: float):
        return self.mobility.position(at_time)


def _median_rate(operations: int, drive: Callable[[object], None],
                 prepare: Callable[[], object] = lambda: None) -> float:
    """Median rate of ``drive(prepare())``; only ``drive`` is on the clock."""
    rates = []
    for _ in range(_REPEATS):
        prepared = prepare()
        started = time.perf_counter()
        drive(prepared)
        rates.append(operations / (time.perf_counter() - started))
    return sorted(rates)[len(rates) // 2]


def engine_cascade(seed: int, events: int) -> float:
    """Schedule/fire cascade: 100 chains, each firing reschedules itself."""
    from repro.sim.engine import Simulator

    chains = 100
    delays = [random.Random(seed).uniform(0.001, 1.0) for _ in range(997)]

    def drive(_) -> None:
        sim = Simulator()
        call_in = sim.call_in
        remaining = [events // chains] * chains

        def fire(chain: int) -> None:
            left = remaining[chain] = remaining[chain] - 1
            if left:
                call_in(delays[(chain * 31 + left) % 997], fire, (chain,))

        for chain in range(chains):
            call_in(delays[chain], fire, (chain,))
        sim.run()
        if sim.events_processed != events:
            raise RuntimeError(f"cascade fired {sim.events_processed} of {events} events")

    return _median_rate(events, drive)


def engine_cancel_churn(seed: int, events: int) -> float:
    """Arm/cancel churn: timers that are re-armed before they ever fire."""
    from repro.sim.engine import Simulator
    from repro.sim.timers import OneShotTimer

    delays = [random.Random(seed).uniform(0.5, 1.0) for _ in range(997)]

    def drive(_) -> None:
        sim = Simulator()
        timers = [OneShotTimer(sim) for _ in range(64)]
        fired = []
        for index in range(events):
            # Every arm but a timer's last cancels the shot before it.
            timers[index % 64].arm(delays[index % 997], fired.append, (index,))
        sim.run()
        if len(fired) != len(timers):
            raise RuntimeError(f"{len(fired)} shots fired, expected {len(timers)}")

    return _median_rate(events, drive)


def _fleet(seed: int, radios: int, moving: bool):
    from repro.mobility.base import RectangularArea
    from repro.mobility.random_waypoint import RandomWaypointMobility
    from repro.mobility.static import StaticMobility
    from repro.net.spatial import UniformGridIndex
    from repro.sim.random import RandomStreams

    streams = RandomStreams(seed)
    area = RectangularArea(1000.0, 1000.0)
    placement = streams.get("kernel.placement")
    index = UniformGridIndex(cell_m=121.0, slack_m=5.5)
    for node_id in range(radios):
        if moving:
            mobility = RandomWaypointMobility(
                area, streams.for_node("kernel.mobility", node_id),
                min_speed_mps=1.0, max_speed_mps=10.0, max_pause_s=0.0,
            )
        else:
            mobility = StaticMobility(placement.uniform(0, 1000.0), placement.uniform(0, 1000.0))
        index.add(_Radio(node_id, mobility))
    origins = [(placement.uniform(0, 1000.0), placement.uniform(0, 1000.0)) for _ in range(997)]
    return index, origins


def spatial_queries(seed: int, radios: int, queries: int, moving: bool) -> float:
    """``candidates()`` over a grid of ``radios``: static, or all moving.

    Only the query loop is timed; the fleet is built before the clock starts,
    afresh for every repeat because the moving fleet's queries advance its
    clock.  The moving fleet advances 10 ms per query, so cell crossings,
    position refreshes and grid rebuilds are paid for inside the timed loop.
    """
    step_s = 0.01 if moving else 0.0

    def drive(fleet) -> None:
        index, origins = fleet
        found = 0
        for query in range(queries):
            found += len(index.candidates(origins[query % 997], 121.0, query * step_s))
        if not found:
            raise RuntimeError("spatial kernel found no candidate at all")

    return _median_rate(queries, drive, lambda: _fleet(seed, radios, moving))


def store_round_trip(seed: int, records: int, workdir: Path) -> float:
    """Append ``records`` trial records to a JSONL store, then load them."""
    from repro import ScenarioConfig
    from repro.campaign import ResultStore, TrialRecord, config_to_dict

    config = config_to_dict(ScenarioConfig.quick(seed=seed))
    stats = {f"layer.counter_{index}": float(index * seed) for index in range(60)}
    path = workdir / "kernel_store.jsonl"

    def drive(_) -> None:
        path.unlink(missing_ok=True)
        store = ResultStore(path)
        for index in range(records):
            store.append(TrialRecord(
                key=f"kernel|{index}", campaign="kernel", x=float(index), variant="gossip",
                seed=seed, scale="quick",
                metrics={"mean": 1.0, "delivery_ratio": 0.5, "events_processed": index},
                member_counts={member: index for member in range(6)},
                protocol_stats=stats, config=config,
            ))
        if len(store.load()) != records:
            raise RuntimeError("store kernel lost records")
        path.unlink()

    return _median_rate(records, drive)


def run_all(seed: int, workdir: Path, smoke: bool = False) -> Dict[str, float]:
    """Every kernel metric of :data:`bench.workloads.KERNELS`."""
    scale = 20 if smoke else 1
    return {
        "sim.engine.kernel_events_per_s": engine_cascade(seed, 200_000 // scale),
        "sim.engine.kernel_cancel_events_per_s": engine_cancel_churn(seed, 300_000 // scale),
        "net.spatial.kernel_queries_per_s": spatial_queries(
            seed, 1000 // scale, 500_000 // scale, moving=False),
        "net.spatial.kernel_moves_per_s": spatial_queries(
            seed, 1000 // scale, 4_000 // scale, moving=True),
        "campaign.store.kernel_records_per_s": store_round_trip(seed, 2000 // scale, workdir),
    }
