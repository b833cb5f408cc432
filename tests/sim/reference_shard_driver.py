"""The in-process lockstep driver: the oracle the process shard driver is
proven against.

``repro.sim.shard`` runs its parallel mode one OS process per shard:
pickled configs, pipe transport and a disjoint packet-uid range per worker.
:func:`drive_lockstep` runs the same schedule with none of that -- every
:class:`~repro.sim.shard._ShardWorker` in this process, one shared uid
counter, the same :func:`~repro.sim.shard._route` between windows and the
same :func:`~repro.sim.shard._merge_telemetry_snapshots` fold at the end --
so ``process`` ≡ this oracle proves the transport changes nothing.

:func:`shard_driver` makes :func:`repro.sim.shard.run_sharded` use it.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

import repro.sim.shard as shard_module
from repro.sim.shard import _merge_telemetry_snapshots, _route, _ShardWorker


def drive_lockstep(
    config, failure_events, bounds, interest
) -> Tuple[List[dict], Tuple[int, int, int], Optional[dict]]:
    """``_drive_process``'s contract, every worker stepped in this process."""
    workers = [
        _ShardWorker(config, role, failure_events)
        for role in range(config.shards)
    ]
    inboxes: List[list] = [[] for _ in range(config.shards)]
    exchanged = shipped = filtered = 0
    for until in bounds:
        stepped = [
            worker.step(inbox, until) for worker, inbox in zip(workers, inboxes)
        ]
        outs = [out for out, _ in stepped]
        occupancies = [occupancy for _, occupancy in stepped]
        inboxes, count, sent, cut = _route(
            outs, config.shards, interest, occupancies
        )
        exchanged += count
        shipped += sent
        filtered += cut
    payloads = [worker.finish() for worker in workers]
    telemetry = (
        _merge_telemetry_snapshots(config, payloads)
        if config.obs_config.enabled
        else None
    )
    return payloads, (exchanged, shipped, filtered), telemetry


@contextmanager
def shard_driver(driver):
    """Within the block, ``run_sharded`` drives its workers with ``driver``.

    Only the name ``repro.sim.shard._drive_process`` is patched, and it is
    restored on exit whatever the block raised.
    """
    production = shard_module._drive_process
    shard_module._drive_process = driver
    try:
        yield
    finally:
        shard_module._drive_process = production
