"""Profiler-driven layer attribution: ``cProfile`` records -> layer self time.

No probe is added to the simulator: the stdlib profiler times every function,
and each function record is charged to a layer by the module that defines it.

Attribution rule
----------------
* A function defined under ``src/repro/`` belongs to the layer of its module
  (:func:`layer_of`); its exclusive time is that layer's self time.
* A builtin or stdlib function (``heapq``, ``random``, ``math``, dict/list
  methods, ``json`` ...) has no layer of its own.  The profiler records, for
  every caller edge, the exclusive time the callee spent on behalf of that
  caller; that time is charged to the caller's layer.  When the caller is
  itself stdlib (``random.uniform`` -> ``random.random``), the charge follows
  that caller's own callers, weighted by the cumulative time of each edge,
  until it reaches ``repro`` code.
* Whatever never reaches ``repro`` code -- the profiler's own bookkeeping, the
  benchmark's harness functions and what they call directly -- is
  ``host.other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, Optional, Tuple

from bench.workloads import LAYERS

FuncKey = Tuple[str, int, str]

#: Modules of ``repro.net`` and ``repro.sim`` that are layers of their own;
#: their siblings (``packet``/``addressing``/``config``; ``random``) fold into
#: ``net.node`` and ``sim.engine``.
_SPLIT = {
    "net": ({"spatial", "medium", "phy", "mac"}, "net.node"),
    "sim": ({"engine", "timers", "shard"}, "sim.engine"),
}
#: Rounds of caller-distribution propagation; stdlib call chains between two
#: ``repro`` frames are a handful of frames deep.
_PROPAGATION_ROUNDS = 12


def layer_of(filename: str, repro_root: str) -> Optional[str]:
    """The layer of a source file, or ``None`` when it is not ``repro`` code."""
    prefix = repro_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) == 1:
        return "host.other"  # repro/__init__.py, cli.py: not a simulator layer
    package, module = parts[0], parts[-1][:-3]
    if package in _SPLIT:
        own, fallback = _SPLIT[package]
        return f"{package}.{module}" if module in own else fallback
    return package if package in LAYERS else "host.other"


def profile_records(profiler) -> dict:
    """The function records of a finished ``cProfile.Profile`` (pstats layout)."""
    return pstats.Stats(profiler).stats


def attribute(stats: dict, repro_root: str) -> Dict[str, Dict[str, float]]:
    """``layer -> {"self_s", "calls"}`` from :func:`profile_records`."""
    own_layer: Dict[FuncKey, Optional[str]] = {
        func: layer_of(func[0], repro_root) for func in stats
    }
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}

    # Where a layerless function's time goes: a distribution over layers,
    # derived from its callers and refined until chains of layerless callers
    # have been followed through.
    other = {"host.other": 1.0}
    shares: Dict[FuncKey, Dict[str, float]] = {
        func: other for func, layer in own_layer.items() if layer is None
    }
    for _ in range(_PROPAGATION_ROUNDS):
        updated = {}
        for func in shares:
            callers = {c: e for c, e in stats[func][4].items() if c != func}
            weights = {c: e[3] for c, e in callers.items()}
            if not any(weights.values()):
                weights = {c: float(e[0]) for c, e in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                updated[func] = other
                continue
            mixed: Dict[str, float] = {}
            for caller, weight in weights.items():
                for layer, part in _shares_of(caller, own_layer, shares).items():
                    mixed[layer] = mixed.get(layer, 0.0) + part * weight / total
            updated[func] = mixed
        shares = updated

    for func, (_, ncalls, self_s, _, callers) in stats.items():
        layer = own_layer[func]
        if layer is not None:
            table[layer]["self_s"] += self_s
            table[layer]["calls"] += ncalls
            continue
        charged = 0.0
        for caller, edge in callers.items():
            if caller == func:
                continue
            for target, part in _shares_of(caller, own_layer, shares).items():
                table[target]["self_s"] += edge[2] * part
            charged += edge[2]
        # Root frames (no caller edge) and self-recursion remainders.
        table["host.other"]["self_s"] += self_s - charged
    return table


def _shares_of(func: FuncKey, own_layer, shares) -> Dict[str, float]:
    layer = own_layer.get(func)
    if layer is not None:
        return {layer: 1.0}
    return shares.get(func, {"host.other": 1.0})


def cumulative_s(stats: dict, names: Iterable[str], filename_suffix: str) -> float:
    """Summed cumulative time of the named functions of one source file."""
    wanted = set(names)
    return sum(
        record[3]
        for (filename, _, name), record in stats.items()
        if name in wanted and filename.endswith(filename_suffix)
    )


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Flatten a layer table into ``<layer>.self_s/.self_share/.calls``."""
    total = sum(row["self_s"] for row in table.values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer, row in table.items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.self_share"] = row["self_s"] / total
        metrics[f"{layer}.calls"] = row["calls"]
    return metrics
