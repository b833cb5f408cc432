"""Scenario construction: the paper's simulation environment in one object.

:class:`ScenarioConfig` captures every knob of the evaluation (section 5.1):
area, node count, transmission range, random-waypoint speeds, group size,
traffic pattern and the gossip parameters.  :class:`Scenario` wires the full
stack together -- medium, mobility, MAC, AODV, MAODV (or flooding), gossip
agents, CBR source and measuring sinks -- runs the simulation and returns a
:class:`ScenarioResult`.

Beyond the paper's setting, a scenario can run **multiple concurrent
multicast groups** (``group_count``) -- each with its own member set,
CBR source(s), per-group delivery collector and gossip agents sharing one
protocol stack -- and **dynamic membership** (``churn_config``): a seeded
churn model joins and leaves members mid-run through the
:mod:`repro.membership` subsystem, with delivery ratios accounted per
subscription interval.  With ``group_count=1`` and churn disabled (the
defaults) the build and run path is bit-identical to the paper's static
single-group reproduction.

Two constructors cover the common cases:

* :meth:`ScenarioConfig.paper` -- the exact parameters of the paper
  (600 s runs, 2201 packets); these take minutes per run in pure Python.
* :meth:`ScenarioConfig.quick` -- a scaled-down variant with identical
  protocol parameters used by the test suite and the default benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import GossipConfig
from repro.core.gossip import GossipAgent
from repro.membership.config import ChurnConfig
from repro.membership.churn import build_churn_model
from repro.membership.controller import MembershipController
from repro.membership.directory import MembershipDirectory
from repro.membership.summary import combine_summaries
from repro.metrics.collectors import DeliveryCollector, DeliverySummary
from repro.mobility.base import RectangularArea
from repro.mobility.config import MobilityConfig, build_fleet, fleet_speed_bound
from repro.multicast.config import MaodvConfig
from repro.multicast.flooding import FloodingConfig, FloodingRouter
from repro.multicast.maodv import MaodvRouter
from repro.multicast.odmrp import OdmrpConfig, OdmrpRouter
from repro.net.addressing import GroupAddress, make_group_address
from repro.net.config import MacConfig, RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.obs import NULL_OBS, ObsConfig, build_obs, promote_flat
from repro.obs.probes import EngineSampler
from repro.routing.aodv import AodvRouter
from repro.routing.config import AodvConfig
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workload.cbr import CbrSource, MulticastSink


@dataclass
class ScenarioConfig:
    """Complete description of one simulation run."""

    # Topology and radio.
    num_nodes: int = 40
    area_width_m: float = 200.0
    area_height_m: float = 200.0
    transmission_range_m: float = 75.0
    bitrate_bps: float = 2_000_000.0
    #: Radio-area geometry: "flat" (the paper's bounded rectangle) or
    #: "torus" (wrap-around edges, no border effects).
    area_topology: str = "flat"

    # Mobility.  The speed envelope below is shared by every model (it is
    # what the paper sweeps); ``mobility_config`` selects the model family
    # -- random waypoint (the paper's, the default), Gauss-Markov, RPGM
    # (groups of the multicast group moving together) or Manhattan grid --
    # and carries the model-specific parameters.
    min_speed_mps: float = 0.0
    max_speed_mps: float = 0.2
    max_pause_s: float = 80.0
    mobility_config: MobilityConfig = field(default_factory=MobilityConfig)

    # Group and traffic.
    member_count: Optional[int] = None  # per group; defaults to num_nodes // 3
    join_window_s: float = 10.0
    source_start_s: float = 120.0
    source_stop_s: float = 560.0
    packet_interval_s: float = 0.2
    payload_bytes: int = 64
    duration_s: float = 600.0
    #: Number of concurrent multicast groups; each gets its own member set,
    #: source(s) and collector over the one shared protocol stack.
    group_count: int = 1
    #: CBR sources per group (members; 1 reproduces the paper's setup).
    sources_per_group: int = 1
    #: Dynamic-membership model; the default (``model="none"``) keeps the
    #: member sets fixed for the whole run exactly as the paper does.
    churn_config: ChurnConfig = field(default_factory=ChurnConfig)

    # Protocols.
    protocol: str = "maodv"  # "maodv", "flooding" or "odmrp"
    gossip_enabled: bool = True
    #: Share each node's group-0 gossip round RNG with its agents in every
    #: extra group (variance reduction: a group-count sweep then isolates
    #: pure contention effects from per-group jitter resampling).  ``False``
    #: keeps the historic independent per-group streams.
    gossip_shared_round_rng: bool = False
    gossip_config: GossipConfig = field(default_factory=GossipConfig)
    aodv_config: AodvConfig = field(default_factory=AodvConfig)
    maodv_config: MaodvConfig = field(default_factory=MaodvConfig)
    flooding_config: FloodingConfig = field(default_factory=FloodingConfig)
    odmrp_config: OdmrpConfig = field(default_factory=OdmrpConfig)
    mac_config: MacConfig = field(default_factory=MacConfig)

    #: Observability (see :mod:`repro.obs`).  Disabled by default: the run
    #: is then bit-identical to an uninstrumented build.
    obs_config: ObsConfig = field(default_factory=ObsConfig)

    # Region sharding (see :mod:`repro.sim.shard`).  ``shards=1`` -- the
    # default -- is the classic single-calendar engine, bit-identical to
    # every previous release.
    #: Number of spatial regions.  With more than one, ``shard_mode`` picks
    #: the execution strategy.
    shards: int = 1
    #: ``"sequential"`` (one process, per-shard heaps, exact global event
    #: order -- bit-identical to the unsharded engine) or ``"process"``
    #: (one OS process per shard in lockstep over conservative sync windows
    #: -- deterministic, and the actual speedup mode).
    shard_mode: str = "sequential"
    #: Conservative sync window override in seconds (parallel modes only).
    #: ``None`` derives it from the radio range and the fleet speed bound.
    shard_window_s: Optional[float] = None

    # Reproducibility.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a scenario needs at least two nodes")
        if self.protocol not in ("maodv", "flooding", "odmrp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.area_topology not in ("flat", "torus"):
            raise ValueError(f"unknown area_topology {self.area_topology!r}")
        if self.member_count is not None and not 1 <= self.member_count <= self.num_nodes:
            raise ValueError("member_count must lie in [1, num_nodes]")
        if self.duration_s <= self.source_start_s:
            raise ValueError("duration_s must exceed source_start_s")
        if self.group_count < 1:
            raise ValueError("group_count must be at least 1")
        if not 1 <= self.sources_per_group <= self.resolved_member_count:
            raise ValueError("sources_per_group must lie in [1, member_count]")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shard_mode not in ("sequential", "process"):
            raise ValueError(f"unknown shard_mode {self.shard_mode!r}")
        if self.shard_window_s is not None and self.shard_window_s <= 0:
            raise ValueError("shard_window_s must be positive")

    # ------------------------------------------------------------ constructors
    @classmethod
    def paper(cls, **overrides) -> "ScenarioConfig":
        """The paper's full-scale settings (section 5.1)."""
        return cls(**overrides)

    @classmethod
    def quick(cls, **overrides) -> "ScenarioConfig":
        """A scaled-down scenario with identical protocol parameters.

        Used by tests and the default benchmark runs: fewer nodes, a shorter
        source phase and a smaller area so a run completes in seconds while
        exercising exactly the same code paths.
        """
        defaults = dict(
            num_nodes=16,
            area_width_m=150.0,
            area_height_m=150.0,
            transmission_range_m=60.0,
            member_count=6,
            join_window_s=4.0,
            source_start_s=15.0,
            source_stop_s=55.0,
            packet_interval_s=0.5,
            duration_s=65.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_gossip(self, enabled: bool) -> "ScenarioConfig":
        """A copy of this config with gossip switched on or off."""
        return replace(self, gossip_enabled=enabled)

    @property
    def resolved_member_count(self) -> int:
        """Number of members per group (defaults to one third of the nodes)."""
        if self.member_count is not None:
            return self.member_count
        return max(2, self.num_nodes // 3)

    @property
    def churn_enabled(self) -> bool:
        """True when a dynamic-membership model is configured."""
        return self.churn_config.enabled

    @property
    def expected_packets(self) -> int:
        """Number of data packets one source will originate."""
        return int((self.source_stop_s - self.source_start_s) / self.packet_interval_s) + 1


@dataclass
class ScenarioResult:
    """Everything measured during one scenario run."""

    config: ScenarioConfig
    summary: DeliverySummary
    member_counts: Dict[int, int]
    goodput_by_member: Dict[int, float]
    packets_sent: int
    protocol_stats: Dict[str, float]
    events_processed: int
    #: Per-group delivery summaries (group index -> summary; ``{0: summary}``
    #: for the single-group case).
    group_summaries: Dict[int, DeliverySummary] = field(default_factory=dict)
    #: Per-group gossip goodput (group index -> member -> percent).
    goodput_by_group: Dict[int, Dict[int, float]] = field(default_factory=dict)
    #: Number of membership events (joins + leaves) applied by churn.
    membership_events: int = 0
    #: Telemetry snapshot (``None`` unless the run was instrumented); see
    #: :meth:`repro.obs.Obs.snapshot` plus the scenario's promoted stats,
    #: ``top_fanout`` offender list and gossip buffer gauges.
    telemetry: Optional[Dict[str, object]] = None
    #: Region-sharding diagnostics (``None`` for unsharded runs): mode,
    #: shard count, per-shard event counts and -- in the parallel modes --
    #: sync window, round count, records exchanged and foreign-record stats.
    shard_stats: Optional[Dict[str, object]] = None

    @property
    def delivery_ratio(self) -> float:
        """Mean fraction of sent packets received per member."""
        return self.summary.delivery_ratio

    @property
    def mean_goodput(self) -> float:
        """Mean gossip goodput across members (100.0 when gossip is off)."""
        if not self.goodput_by_member:
            return 100.0
        return sum(self.goodput_by_member.values()) / len(self.goodput_by_member)


class Scenario:
    """Builds and runs one simulation described by a :class:`ScenarioConfig`."""

    def __init__(self, config: ScenarioConfig, shard_role: Optional[int] = None):
        self.config = config
        #: Parallel-shard worker role: build the full scenario (identical
        #: seeded draws) but keep only shard ``shard_role``'s radios enabled
        #: and start only its protocol stacks.  ``None`` -- the default --
        #: is the ordinary whole-fleet build.
        self.shard_role = shard_role
        #: The region partition (``None`` unless ``config.shards > 1``).
        self.shard_plan = None
        self.sim: Optional[Simulator] = None
        self.medium: Optional[Medium] = None
        self.nodes: List[Node] = []
        self.aodv: Dict[int, AodvRouter] = {}
        self.multicast: Dict[int, object] = {}
        self.groups: List[GroupAddress] = [
            make_group_address(index) for index in range(config.group_count)
        ]
        self.group = self.groups[0]
        #: group index -> node id -> agent; ``self.gossip`` aliases group 0.
        self.gossip_by_group: Dict[int, Dict[int, GossipAgent]] = {
            index: {} for index in range(config.group_count)
        }
        self.gossip: Dict[int, GossipAgent] = self.gossip_by_group[0]
        self.members_by_group: Dict[int, List[int]] = {}
        self.sources_by_group: Dict[int, List[int]] = {}
        self.members: List[int] = []
        self.source_id: Optional[int] = None
        self.collectors: Dict[int, DeliveryCollector] = {
            index: DeliveryCollector() for index in range(config.group_count)
        }
        self.collector = self.collectors[0]
        self.source: Optional[CbrSource] = None
        self.sources: Dict[Tuple[int, int], CbrSource] = {}
        self.sinks: Dict[int, MulticastSink] = {}
        self.sinks_by_group: Dict[int, Dict[int, MulticastSink]] = {
            index: {} for index in range(config.group_count)
        }
        self.directory: Optional[MembershipDirectory] = None
        self.controller: Optional[MembershipController] = None
        self.obs = NULL_OBS
        self.sampler: Optional[EngineSampler] = None
        #: (group index, member) -> churn-join time, pending first delivery
        #: (observability enabled only; feeds the join-latency histogram).
        self._pending_joins: Dict[Tuple[int, int], float] = {}
        self._built = False

    # ----------------------------------------------------------------- building
    def build(self) -> "Scenario":
        """Instantiate the whole stack.  Returns ``self`` for chaining."""
        if self._built:
            return self
        config = self.config
        if (
            config.shards > 1
            and config.shard_mode == "sequential"
            and self.shard_role is None
        ):
            # The sequential multi-shard scheduler: per-region heaps, exact
            # global event order.  Parallel-mode workers (shard_role set)
            # and unsharded runs use the classic single-heap engine.
            from repro.sim.shard import ShardedSimulator

            self.sim = ShardedSimulator(config.shards)
        else:
            self.sim = Simulator()
        self.obs = build_obs(config.obs_config)
        streams = RandomStreams(config.seed)
        radio = RadioConfig(
            transmission_range_m=config.transmission_range_m,
            bitrate_bps=config.bitrate_bps,
            area_topology=config.area_topology,
            area_width_m=config.area_width_m,
            area_height_m=config.area_height_m,
            speed_bound_mps=fleet_speed_bound(config.mobility_config, config.max_speed_mps),
            shards=config.shards,
        )
        index_membership = None
        if config.shards > 1:
            from repro.sim.shard import ShardPlan

            self.shard_plan = ShardPlan.build(
                config.shards, config.area_width_m, config.area_height_m
            )
            if self.shard_role is not None:
                # Shard-local spatial index: a parallel worker admits only
                # the radios it can ever interact with -- its own region's
                # plus the *halo* (radios within carrier-sense range of the
                # region at t=0).  Foreign non-halo radios are registered on
                # the medium (the registry and the failure filter need every
                # phy) but never indexed, so the grid, its motion tracking
                # and every candidate scan stay region-sized.  Owned radios
                # always pass (distance 0 inside their home region); halo
                # radios are disabled foreign ones, filtered by ``enabled``
                # checks everywhere, so admitting them is free future-proofing
                # and keeps the index an honest cs-range closure of the region.
                def index_membership(
                    phy,
                    plan=self.shard_plan,
                    role=self.shard_role,
                    torus=(config.area_topology == "torus"),
                    cs_range=radio.carrier_sense_range_m,
                ):
                    x, y = phy.position(0.0)
                    return plan.region_distance(role, x, y, torus=torus) <= cs_range

        self.medium = Medium(
            self.sim, radio, obs=self.obs, index_membership=index_membership
        )
        area = RectangularArea(config.area_width_m, config.area_height_m)

        # Members are selected before the fleet is built so RPGM can align
        # mobility groups with the multicast member sets.  Every named
        # random stream is independently seeded, so this ordering leaves
        # the historic draws (mobility, membership, joins, ...) untouched.
        self._select_members(streams)
        fleet = build_fleet(
            config.mobility_config,
            area,
            config.num_nodes,
            streams,
            min_speed_mps=config.min_speed_mps,
            max_speed_mps=config.max_speed_mps,
            max_pause_s=config.max_pause_s,
            member_groups=[
                self.members_by_group[index] for index in range(config.group_count)
            ],
        )

        for node_id in range(config.num_nodes):
            shard = None
            if self.shard_plan is not None:
                shard = self.shard_plan.shard_of(*fleet[node_id].position(0.0))
            owned = self.shard_role is None or shard == self.shard_role
            node = Node(
                node_id,
                self.sim,
                self.medium,
                fleet[node_id],
                streams,
                mac_config=config.mac_config,
                build_mac=owned,
            )
            self.nodes.append(node)
            if shard is not None:
                node.phy.shard = shard
                if not owned:
                    # Foreign radio in a parallel worker: it goes dark (a
                    # disabled radio neither transmits nor receives) and --
                    # stack elision -- no MAC / AODV / multicast / gossip
                    # objects are built for it (the MAC is skipped at
                    # construction above via ``build_mac=owned``).  Safe
                    # without stub draws because every
                    # protocol constructor draws only from per-node
                    # hash-derived streams (``RandomStreams.for_node``); the
                    # shared streams (membership, mobility, joins) are all
                    # consumed unconditionally elsewhere, so every worker's
                    # draw sequence stays identical to the whole-fleet build.
                    node.phy.enabled = False
                    continue
            aodv = AodvRouter(node, config.aodv_config)
            self.aodv[node_id] = aodv
            if config.protocol == "maodv":
                multicast = MaodvRouter(node, aodv, config.maodv_config)
            elif config.protocol == "odmrp":
                multicast = OdmrpRouter(node, aodv, config.odmrp_config)
            else:
                multicast = FloodingRouter(node, aodv, config.flooding_config)
            self.multicast[node_id] = multicast
            if config.gossip_enabled:
                for group_index, group in enumerate(self.groups):
                    # Group 0 draws the exact per-node stream the single-group
                    # scenario always used; extra groups get their own --
                    # unless round-RNG sharing is on, in which case every
                    # group of this node draws from the group-0 stream object
                    # so a group-count sweep resamples no per-group jitter.
                    if group_index == 0:
                        rng = None
                    elif config.gossip_shared_round_rng:
                        rng = self.gossip_by_group[0][node_id].rng
                    else:
                        rng = streams.for_node(f"gossip.g{group_index}", node_id)
                    self.gossip_by_group[group_index][node_id] = GossipAgent(
                        node, multicast, aodv, group, config.gossip_config, rng=rng
                    )

        self._build_membership(streams)
        self._attach_applications(streams)
        if self.obs.enabled:
            self._attach_probes()
        self._built = True
        return self

    def _owns(self, node_id: int) -> bool:
        """True when this build runs ``node_id``'s protocol stack."""
        return (
            self.shard_role is None
            or self.nodes[node_id].phy.shard == self.shard_role
        )

    def _select_members(self, streams: RandomStreams) -> None:
        rng = streams.get("membership")
        config = self.config
        member_count = config.resolved_member_count
        for group_index in range(config.group_count):
            members = sorted(rng.sample(range(config.num_nodes), member_count))
            if config.sources_per_group == 1:
                sources = [rng.choice(members)]
            else:
                sources = sorted(rng.sample(members, config.sources_per_group))
            self.members_by_group[group_index] = members
            self.sources_by_group[group_index] = sources
        self.members = self.members_by_group[0]
        self.source_id = self.sources_by_group[0][0]

    def _build_membership(self, streams: RandomStreams) -> None:
        """Create the churn subsystem (only when a churn model is configured)."""
        config = self.config
        churn_config = config.churn_config
        if not churn_config.enabled:
            return
        self.directory = MembershipDirectory(config.group_count)
        churn_rng = streams.get("churn")
        pool = (
            list(churn_config.pool)
            if churn_config.pool is not None
            else list(range(config.num_nodes))
        )
        # Protect each group's sources from leaving *that* group only; a
        # source of group 0 may still churn in and out of other groups.
        protected = {
            group_index: set(sources)
            for group_index, sources in self.sources_by_group.items()
        }
        self.controller = MembershipController(
            self.sim,
            self.directory,
            pool=pool,
            window=churn_config.window(config.duration_s),
            churn=build_churn_model(churn_config, churn_rng),
            min_members=churn_config.min_members,
            max_members=churn_config.max_members,
            protected=protected,
            collectors=self.collectors,
            join_hook=self._apply_membership_join,
            leave_hook=self._apply_membership_leave,
        )

    def _attach_applications(self, streams: RandomStreams) -> None:
        config = self.config
        join_rng = streams.get("joins")
        for group_index, group in enumerate(self.groups):
            collector = self.collectors[group_index]
            for member in self.members_by_group[group_index]:
                # Foreign members in a parallel worker have no multicast
                # router or gossip agent (stack elision), so their sinks are
                # skipped too; every member is owned by exactly one worker,
                # so the merged member registry stays complete.
                if self._owns(member):
                    self._ensure_sink(group_index, member)
                # The join time is drawn unconditionally so a shard worker's
                # stream stays aligned with the whole-fleet build; only
                # owned members get the join actually scheduled.
                join_at = join_rng.uniform(0.0, config.join_window_s)
                if self.controller is not None:
                    self.controller.schedule_initial_join(group_index, member, join_at)
                elif self._owns(member):
                    self.sim.schedule_at(
                        join_at, self.multicast[member].join_group, group
                    )
            for source_id in self.sources_by_group[group_index]:
                if not self._owns(source_id):
                    continue
                source_node = self.nodes[source_id]
                source = CbrSource(
                    source_node,
                    self.multicast[source_id],
                    group,
                    start_s=config.source_start_s,
                    stop_s=config.source_stop_s,
                    interval_s=config.packet_interval_s,
                    payload_bytes=config.payload_bytes,
                    collector=collector,
                )
                self.sources[(group_index, source_id)] = source
                source_node.add_application(source)
        # ``.get``: a parallel worker that does not own the group-0 source
        # has no CbrSource for it.
        self.source = self.sources.get((0, self.sources_by_group[0][0]))

    def _attach_probes(self) -> None:
        """Observability-only wiring (never reached with obs disabled).

        Creates the engine sampler and registers the per-collector delivery
        listeners that feed the churn join-latency histogram.  Everything
        here adds calendar events or callbacks, which is exactly why none of
        it exists on the disabled path.
        """
        obs = self.obs
        self.sampler = EngineSampler(
            self.sim, obs, interval_s=self.config.obs_config.sample_interval_s
        )
        self._h_join_latency = obs.histogram(
            "membership.churn.join_to_first_delivery_s", buckets=None, reservoir=True
        )
        for group_index, collector in self.collectors.items():
            collector.on_delivery = self._make_delivery_probe(group_index)

    def _make_delivery_probe(self, group_index: int):
        pending = self._pending_joins
        histogram = self._h_join_latency

        def probe(member: int, source: int, seq: int, via_gossip: bool) -> None:
            joined_at = pending.pop((group_index, member), None)
            if joined_at is not None:
                histogram.observe(self.sim.now - joined_at)

        return probe

    def _ensure_sink(self, group_index: int, node_id: int) -> MulticastSink:
        """The (group, node) measuring sink, created on first need.

        Initial members get their sinks at build time; churn joiners of
        previously-unsubscribed nodes get one lazily at their first join.
        """
        sink = self.sinks_by_group[group_index].get(node_id)
        if sink is not None:
            return sink
        node = self.nodes[node_id]
        sink = MulticastSink(
            node,
            self.multicast[node_id],
            self.collectors[group_index],
            gossip=self.gossip_by_group[group_index].get(node_id),
            group=self.groups[group_index],
        )
        self.sinks_by_group[group_index][node_id] = sink
        if group_index == 0:
            self.sinks[node_id] = sink
        node.add_application(sink)
        return sink

    # ------------------------------------------------------- membership hooks
    def _apply_membership_join(self, group_index: int, node_id: int, initial: bool) -> None:
        group = self.groups[group_index]
        self.multicast[node_id].join_group(group)
        if not initial:
            agent = self.gossip_by_group[group_index].get(node_id)
            if agent is not None:
                agent.on_membership_join()
        self._ensure_sink(group_index, node_id)
        if self.obs.enabled:
            now = self.sim.now
            self.obs.record(
                "membership.join", now, group=group_index, node=node_id, initial=initial
            )
            if not initial:
                # Churn joins only: an initial member's first delivery waits
                # for the source phase, which is not a (re)join latency.
                self._pending_joins[(group_index, node_id)] = now

    def _apply_membership_leave(self, group_index: int, node_id: int, initial: bool) -> None:
        agent = self.gossip_by_group[group_index].get(node_id)
        if agent is not None:
            agent.on_membership_leave()
        self.multicast[node_id].leave_group(self.groups[group_index])
        if self.obs.enabled:
            self.obs.record(
                "membership.leave",
                self.sim.now,
                group=group_index,
                node=node_id,
                initial=initial,
            )
            self._pending_joins.pop((group_index, node_id), None)

    # ------------------------------------------------------------------ running
    def start_stacks(self) -> None:
        """Start every owned protocol stack (all of them without a role).

        Separate from :meth:`run` so the parallel shard drivers can start a
        worker's stacks and then advance its simulator window by window.
        The start order -- nodes, AODV, gossip agents, controller, sampler
        -- is the historic one; ownership filtering removes entries without
        reordering them.
        """
        owns = self._owns
        for node in self.nodes:
            if owns(node.node_id):
                node.start()
        for node_id, aodv in self.aodv.items():
            if owns(node_id):
                aodv.start()
        for agents in self.gossip_by_group.values():
            for node_id, agent in agents.items():
                if owns(node_id):
                    agent.start()
        if self.controller is not None:
            self.controller.start()
        if self.sampler is not None:
            self.sampler.start()

    def run(self) -> ScenarioResult:
        """Build (if needed), run to completion and return the results."""
        self.build()
        self.start_stacks()
        try:
            self.sim.run(until=self.config.duration_s)
        except BaseException:
            dump_path = self.config.obs_config.dump_on_error_path
            if self.obs.enabled and dump_path:
                self.obs.dump_recorder(dump_path)
            raise
        return self._collect_results()

    def _collect_results(self) -> ScenarioResult:
        group_summaries = {
            group_index: collector.summary()
            for group_index, collector in self.collectors.items()
        }
        summary = (
            group_summaries[0]
            if self.config.group_count == 1
            else combine_summaries(group_summaries)
        )
        goodput_by_group = {
            group_index: {
                member: agents[member].stats.goodput_percent
                for member in self._ever_members(group_index)
                if member in agents
            }
            for group_index, agents in self.gossip_by_group.items()
        }
        member_counts = (
            self.collector.counts()
            if self.config.group_count == 1
            else dict(summary.member_counts)
        )
        return ScenarioResult(
            config=self.config,
            summary=summary,
            member_counts=member_counts,
            goodput_by_member=goodput_by_group.get(0, {}),
            packets_sent=sum(c.packets_sent for c in self.collectors.values()),
            protocol_stats=self._aggregate_protocol_stats(),
            events_processed=self.sim.events_processed,
            group_summaries=group_summaries,
            goodput_by_group=goodput_by_group,
            membership_events=(
                self.controller.stats.churn_events if self.controller else 0
            ),
            telemetry=self._collect_telemetry(),
            shard_stats=(
                {
                    "mode": "sequential",
                    "shards": self.sim.shards,
                    "events_by_shard": {
                        shard: count
                        for shard, count in enumerate(self.sim.shard_events)
                    },
                }
                if self.sim.is_sharded
                else None
            ),
        )

    def _publish_telemetry(self) -> None:
        """Publish end-of-run derived metrics into the registry.

        Shared by the in-process snapshot path (:meth:`_collect_telemetry`)
        and the parallel shard workers, which publish into their own
        registries before the per-worker states are merged (counters sum
        across workers, so per-worker promotion composes exactly).
        """
        registry = self.obs.registry
        # Promote the per-layer stats dataclasses into the canonical
        # ``layer.subsystem.name`` namespace (one storage location -- the
        # dataclasses -- read here once per snapshot).
        registry.set_metrics(promote_flat(self._aggregate_protocol_stats()).items())
        self.medium.publish_index_metrics()
        # End-of-run gossip buffer occupancy (worst member per buffer).
        history_max = lost_max = cache_max = 0
        for agents in self.gossip_by_group.values():
            for agent in agents.values():
                history_max = max(history_max, len(agent.history))
                lost_max = max(lost_max, len(agent.lost_table))
                cache_max = max(cache_max, len(agent.member_cache))
        registry.gauge("gossip.buffers.history_max").set(history_max)
        registry.gauge("gossip.buffers.lost_max").set(lost_max)
        registry.gauge("gossip.buffers.member_cache_max").set(cache_max)

    def _collect_telemetry(self) -> Optional[Dict[str, object]]:
        """The run's JSON-ready telemetry snapshot (``None`` when disabled)."""
        obs = self.obs
        if not obs.enabled:
            return None
        self._publish_telemetry()
        snapshot = obs.snapshot()
        snapshot["top_fanout"] = [
            [node_id, total]
            for node_id, total in self.medium.top_fanout(
                self.config.obs_config.top_fanout_n
            )
        ]
        return snapshot

    def _ever_members(self, group_index: int) -> List[int]:
        """Every node that was a member of the group at some point."""
        if self.directory is not None:
            return self.directory.ever_members(group_index)
        return self.members_by_group[group_index]

    def _aggregate_protocol_stats(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}

        def accumulate(prefix: str, stats_object) -> None:
            for name, value in vars(stats_object).items():
                if isinstance(value, (int, float)):
                    totals[f"{prefix}.{name}"] = totals.get(f"{prefix}.{name}", 0) + value

        for aodv in self.aodv.values():
            accumulate("aodv", aodv.stats)
        for multicast in self.multicast.values():
            accumulate(self.config.protocol, multicast.stats)
        for agents in self.gossip_by_group.values():
            for agent in agents.values():
                accumulate("gossip", agent.stats)
        for node in self.nodes:
            if node.mac is not None:
                accumulate("mac", node.mac.stats)
        accumulate("medium", self.medium.stats)
        if self.controller is not None:
            accumulate("membership", self.controller.stats)
        return totals


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Convenience wrapper: build and run a scenario in one call.

    The parallel shard mode (``shards > 1`` with ``shard_mode="process"``)
    dispatches to :func:`repro.sim.shard.run_sharded`; everything else --
    including the sequential sharded engine -- runs in this process through
    :class:`Scenario`.
    """
    if config.shards > 1 and config.shard_mode == "process":
        from repro.sim.shard import run_sharded

        return run_sharded(config)
    return Scenario(config).run()
