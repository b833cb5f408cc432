"""Golden-digest harness pinning the simulator's observable behaviour.

The engine / medium / MAC hot-path refactor (slot-pooled event queue,
reception pooling, flattened receive table) must be *behaviour preserving*:
every protocol counter, every delivered frame, every aggregate metric has to
come out bit-identical to the pre-refactor implementation.  Grid-vs-naive
equivalence (``test_medium_equivalence.py``) proves the medium agrees with
its linear-scan oracle, but it cannot catch a regression that shifts *both*
the same way -- an engine that fires ties in a different order, a MAC that
cancels a timer it previously let fire, a pooled reception that leaks state
between frames.

This module pins the absolute behaviour instead: a table of small seeded
scenarios covering the geometries of the paper's figures 2-8 (range sweeps,
speed sweeps, both node-count sweeps, the goodput setting), every protocol
stack (MAODV, flooding, ODMRP) and failure injection.  Each scenario's full
observable output is reduced to a digest -- every protocol/MAC/medium
counter, per-member delivery counts, goodputs, the engine's event count and
a hash of the canonicalised packet-delivery log -- and compared against
digests recorded from the pre-refactor implementation
(``golden_hotpath.json``, regenerated via
``scripts/regen_hotpath_golden.py``).  The churn pins (``GOLDEN_CHURN``)
add every churn model over one and two groups, digested on the per-group
and interval-aware outputs (:func:`churn_digest`).

Digest mismatches mean the refactor changed simulation behaviour; they are
never to be "fixed" by regenerating the goldens unless the behaviour change
itself is intended and reviewed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict

from repro.experiments.variants import variant_config
from repro.membership.config import ChurnConfig
from repro.workload.scenario import Scenario, ScenarioConfig
from tests.net.reference_medium import LinearScanMedium, scenario_medium

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_hotpath.json")

#: Quick-scale timing shared by every golden scenario: a short but complete
#: run (joins, source phase, gossip recovery tail) that finishes in about a
#: second per scenario.
_TIMING = dict(
    join_window_s=3.0,
    source_start_s=8.0,
    source_stop_s=22.0,
    packet_interval_s=0.5,
    duration_s=26.0,
)


def _config(**overrides) -> ScenarioConfig:
    params = dict(_TIMING)
    params.update(overrides)
    return ScenarioConfig.quick(**params)


def _fig6_range(nodes: int) -> float:
    """Fig. 6's constant-degree law: 55 m at the reference 40 nodes."""
    return 55.0 * math.sqrt(40.0 / nodes)


#: name -> ScenarioConfig covering each figure's geometry and every stack.
GOLDEN_SCENARIOS: Dict[str, ScenarioConfig] = {
    # Fig. 2: sparse range, slow nodes.
    "fig2_range_slow": _config(
        num_nodes=14, member_count=5, transmission_range_m=52.0,
        max_speed_mps=0.2, max_pause_s=20.0, seed=11,
    ),
    # Fig. 3: same range sweep at 2 m/s.
    "fig3_range_fast": _config(
        num_nodes=14, member_count=5, transmission_range_m=60.0,
        max_speed_mps=2.0, max_pause_s=5.0, seed=12,
    ),
    # Fig. 4 / Fig. 5: speed sweeps at fixed range (slow and fast points).
    "fig4_speed_low": _config(
        num_nodes=14, member_count=5, transmission_range_m=75.0,
        max_speed_mps=0.5, max_pause_s=10.0, seed=13,
    ),
    "fig5_speed_high": _config(
        num_nodes=14, member_count=5, transmission_range_m=60.0,
        max_speed_mps=5.0, max_pause_s=2.0, seed=14,
    ),
    # Fig. 6 / Fig. 7: node-count sweeps on the paper's 200 m x 200 m area,
    # constant-degree and fixed-range geometries.
    "fig6_nodes_const_degree": _config(
        num_nodes=22, member_count=7, area_width_m=200.0, area_height_m=200.0,
        transmission_range_m=_fig6_range(22), max_speed_mps=1.0, max_pause_s=10.0,
        seed=15,
    ),
    "fig7_nodes_const_range": _config(
        num_nodes=22, member_count=7, area_width_m=200.0, area_height_m=200.0,
        transmission_range_m=55.0, max_speed_mps=1.0, max_pause_s=10.0, seed=16,
    ),
    # Fig. 8: the goodput setting (sparse + fast, gossip under stress).
    "fig8_goodput": _config(
        num_nodes=14, member_count=5, transmission_range_m=45.0,
        max_speed_mps=2.0, max_pause_s=5.0, seed=17,
    ),
    # Alternate stacks: flooding and ODMRP exercise different MAC mixes
    # (broadcast-heavy vs query/reply unicast).
    "flooding_stack": _config(
        num_nodes=14, member_count=5, transmission_range_m=60.0,
        max_speed_mps=2.0, max_pause_s=5.0, protocol="flooding", seed=18,
    ),
    "odmrp_stack": _config(
        num_nodes=14, member_count=5, transmission_range_m=60.0,
        max_speed_mps=1.0, max_pause_s=10.0, protocol="odmrp", seed=19,
    ),
    # The naive linear-scan medium must be pinned too (``GOLDEN_MEDIA``
    # below): grid-vs-naive equivalence alone cannot see a change that
    # shifts both the same way.
    "fig7_naive_medium": _config(
        num_nodes=22, member_count=7, area_width_m=200.0, area_height_m=200.0,
        transmission_range_m=55.0, max_speed_mps=1.0, max_pause_s=10.0,
        seed=16,
    ),
}

# The gossip ablations on Fig. 7's geometry: ``p_anon`` 0 sends cached gossip
# every round the member cache allows, 1 never does, and the locality bias
# off draws next hops uniformly.
_FIG7 = GOLDEN_SCENARIOS["fig7_nodes_const_range"]
GOLDEN_SCENARIOS.update(
    gossip_cached_only=variant_config(_FIG7, "gossip-cached-only"),
    gossip_anonymous_only=variant_config(_FIG7, "gossip-anonymous-only"),
    gossip_no_locality=variant_config(_FIG7, "gossip-no-locality"),
)

#: Goldens that run on a reference medium (the ``medium=`` of
#: :func:`run_digest`) instead of the production one.
GOLDEN_MEDIA = {"fig7_naive_medium": LinearScanMedium}

#: Deterministic failure-injection overlays: name -> (scenario name, events).
GOLDEN_FAILURES: Dict[str, tuple] = {
    "fig7_with_outages": (
        "fig7_nodes_const_range",
        [(3, 9.0, 15.0), (8, 11.0, 19.0), (14, 10.0, 24.0)],
    ),
    "flooding_with_outages": (
        "flooding_stack",
        [(2, 9.5, 14.0), (6, 12.0, 21.0)],
    ),
}


def _churn(model: str, groups: int, seed: int, **churn) -> ScenarioConfig:
    """A quick churn golden: ``model`` over ``groups`` groups (script rows
    of absent groups dropped)."""
    if "script" in churn:
        churn["script"] = [row for row in churn["script"] if row[1] < groups]
    return _config(
        num_nodes=12, member_count=4, transmission_range_m=60.0,
        max_speed_mps=1.0, max_pause_s=10.0, group_count=groups, seed=seed,
        churn_config=ChurnConfig(model=model, **churn),
    )


#: Rate-driven churn starts after the join window, so the initial members
#: are subscribed when the on/off model samples its starting states.
_ONOFF = dict(start_s=4.0, mean_on_s=8.0, mean_off_s=6.0)
_SCRIPT = [
    [9.0, 0, 1, "join"], [10.0, 0, 2, "join"], [12.0, 0, 1, "leave"],
    [13.0, 1, 3, "join"], [15.0, 0, 1, "join"], [16.0, 1, 3, "leave"],
    [18.0, 0, 2, "leave"],
]

#: Dynamic membership and multiple groups: every churn model over one and
#: two groups (digested by :func:`churn_digest`, which adds the per-group
#: and interval-aware outputs the static goldens cannot reach).
GOLDEN_CHURN: Dict[str, ScenarioConfig] = {
    f"churn_{name}_{groups}g": _churn(model, groups, seed, **churn)
    for name, model, seed, churn in (
        ("poisson", "poisson", 21, dict(start_s=4.0, events_per_minute=30.0)),
        ("onoff", "onoff", 22, _ONOFF),
        ("onoff_correlated", "onoff", 23, dict(_ONOFF, onoff_correlated=True)),
        ("flash_stay", "flash", 24,
         dict(flash_at_s=10.0, flash_joiners=3, flash_stay_s=6.0)),
        ("scripted", "scripted", 25, dict(script=_SCRIPT)),
    )
    for groups in (1, 2)
}


def _log_receptions(node, log) -> None:
    """Log every copy ``node`` receives, then hand it to its receiver.

    Every entry of the node's receive table becomes a logger around the
    entry's own receiver: it appends ``(time, receiver, sender, uid, type)``
    and then calls the handler or stamps the mailbox, so a copy nothing
    handles is logged too.  Both receive paths see the wrapped entries:
    ``Node.deliver`` through the shadowed resolver, the medium's teardown
    through the broadcast route lent again with that resolver.
    """
    resolve = node._resolve_receiver
    table = node._dispatch_cache
    sim = node.sim
    nid = node.node_id

    def logged(packet_type):
        receiver = resolve(packet_type)

        def log_copy(packet, from_node):
            log.append((sim.now, nid, from_node, packet.uid, packet_type.__name__))
            if receiver.__class__ is dict:
                receiver[from_node] = (packet, sim.now)
            elif receiver:
                receiver(packet, from_node)

        table[packet_type] = log_copy
        return log_copy

    table.clear()
    node._resolve_receiver = logged
    if node.phy.broadcast_route is not None:
        node.mac.lend_broadcast_route(table, logged, node.heard)


def run_with_delivery_log(config: ScenarioConfig, failure_events=None, medium=None):
    """Run a scenario recording every packet delivery in order.

    ``medium`` builds the scenario on that reference medium class (see
    ``tests/net/reference_medium.py``) instead of the production one.

    Returns ``(result, canonical_log)`` where the log holds one
    ``(time, receiver, sender, canonical uid, packet type)`` tuple per packet
    any node receives.  Packet uids come from a process-global counter, so
    they differ between runs; they are canonicalised to first-seen indexes to
    make logs comparable across runs.  Shared by the grid-vs-naive
    equivalence suite and the golden digests so both pin the same notion of
    "delivered-frame sequence".
    """
    log = []
    result = _run(config, failure_events, medium, log)
    canonical = {}
    canonical_log = [
        (now, nid, from_node, canonical.setdefault(uid, len(canonical)), kind)
        for now, nid, from_node, uid, kind in log
    ]
    return result, canonical_log


def _run(config: ScenarioConfig, failure_events, medium, log):
    """Build and run one scenario, logging receptions into ``log`` unless
    it is ``None``."""
    with scenario_medium(medium):
        scenario = Scenario(config).build()
    if log is not None:
        for node in scenario.nodes:
            _log_receptions(node, log)
    if failure_events:
        from repro.workload.failures import FailureEvent, FailureSchedule

        schedule = FailureSchedule(
            scenario.sim,
            scenario.nodes,
            [FailureEvent(node_id=n, start_s=s, end_s=e) for n, s, e in failure_events],
        )
        schedule.start()
    return scenario.run()


def _result_digest(result) -> dict:
    """The digest fields read off the run's result alone."""
    return {
        "protocol_stats": {key: result.protocol_stats[key] for key in sorted(result.protocol_stats)},
        "member_counts": {str(k): v for k, v in sorted(result.member_counts.items())},
        "goodput_by_member": {str(k): v for k, v in sorted(result.goodput_by_member.items())},
        "packets_sent": result.packets_sent,
        "events_processed": result.events_processed,
    }


def run_digest(config: ScenarioConfig, failure_events=None, medium=None) -> dict:
    """Run ``config`` and reduce every observable output to a digest.

    The delivery log is hashed; everything else is recorded verbatim so
    mismatches are diagnosable.
    """
    result, canonical_log = run_with_delivery_log(config, failure_events, medium)
    log_hash = hashlib.sha256(repr(canonical_log).encode()).hexdigest()
    return {
        **_result_digest(result),
        "deliveries_logged": len(canonical_log),
        "delivery_log_sha256": log_hash,
    }


def run_unlogged_digest(config: ScenarioConfig, failure_events=None, medium=None) -> dict:
    """:func:`run_digest` without the delivery log, and so without its two
    fields: every copy takes the production receive paths, HELLO mailboxes
    included, instead of the logger's."""
    return _result_digest(_run(config, failure_events, medium, None))


def _summary_digest(summary) -> dict:
    fields = dict(vars(summary))
    fields["member_counts"] = {str(k): v for k, v in sorted(summary.member_counts.items())}
    return fields


def churn_digest(config: ScenarioConfig) -> dict:
    """Run a churn golden and digest its per-group, interval-aware outputs."""
    result = Scenario(config).run()
    return {
        **_result_digest(result),
        "delivery_ratio": result.delivery_ratio,
        "membership_events": result.membership_events,
        "goodput_by_group": {
            str(group): {str(k): v for k, v in sorted(goodput.items())}
            for group, goodput in sorted(result.goodput_by_group.items())
        },
        "group_summaries": {
            str(group): _summary_digest(summary)
            for group, summary in sorted(result.group_summaries.items())
        },
    }


def golden_case(name: str) -> tuple:
    """``(config, failure_events, medium)`` of one stored golden."""
    if name in GOLDEN_FAILURES:
        base, events = GOLDEN_FAILURES[name]
        return GOLDEN_SCENARIOS[base], events, None
    return GOLDEN_SCENARIOS[name], None, GOLDEN_MEDIA.get(name)


def compute_all() -> Dict[str, dict]:
    """Digests for every golden scenario, failure overlay and churn pin."""
    digests = {
        name: run_digest(*golden_case(name))
        for name in (*GOLDEN_SCENARIOS, *GOLDEN_FAILURES)
    }
    digests.update((name, churn_digest(config)) for name, config in GOLDEN_CHURN.items())
    return digests


def load_golden() -> Dict[str, dict]:
    """The recorded digests (see module docstring for regeneration)."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)
