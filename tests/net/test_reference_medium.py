"""The seam between the one production medium and its test oracles.

What the oracles *compute* is proven by the equivalence suites (see
``tests/net/reference_medium.py``); this file pins how they are selected --
``scenario_medium`` patches one name and always puts it back -- and that the
options and state they replaced are really gone from the product.
"""

import pytest

import repro.workload.scenario as scenario_module
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.phy import Phy
from repro.sim.engine import Simulator
from repro.workload.scenario import Scenario, ScenarioConfig
from tests.net.reference_medium import (
    LinearScanIndex,
    LinearScanMedium,
    PerCopyMedium,
    scenario_medium,
)


def _built_medium_class():
    return type(Scenario(ScenarioConfig.quick(num_nodes=4, member_count=2)).build().medium)


class TestScenarioMedium:
    @pytest.mark.parametrize("cls", [PerCopyMedium, LinearScanMedium])
    def test_builds_on_the_oracle_inside_and_production_after(self, cls):
        with scenario_medium(cls):
            assert _built_medium_class() is cls
        assert _built_medium_class() is Medium

    def test_none_leaves_production_in_place(self):
        with scenario_medium(None):
            assert _built_medium_class() is Medium

    def test_restores_production_when_build_raises(self):
        def broken_medium(*args, **kwargs):
            raise RuntimeError("no medium")

        with pytest.raises(RuntimeError, match="no medium"):
            with scenario_medium(broken_medium):
                _built_medium_class()
        assert scenario_module.Medium is Medium
        assert _built_medium_class() is Medium


class TestOracleConstruction:
    def test_linear_scan_medium_runs_on_the_linear_scan(self):
        admit_even = lambda phy: phy.node_id % 2 == 0  # noqa: E731
        index = LinearScanMedium(Simulator(), index_membership=admit_even)._index
        assert isinstance(index, LinearScanIndex) and index.membership is admit_even

    def test_per_copy_oracle_refuses_the_parallel_shard_modes(self):
        with pytest.raises(RuntimeError, match="parallel shard"):
            PerCopyMedium(Simulator()).enable_export()


class TestOptionsAreGone:
    def test_configs_reject_the_retired_selectors(self):
        with pytest.raises(TypeError):
            RadioConfig(fanout_kernel="object")
        with pytest.raises(TypeError):
            RadioConfig(medium_index="naive")
        with pytest.raises(TypeError):
            ScenarioConfig(fanout_kernel="object")
        with pytest.raises(TypeError):
            ScenarioConfig(medium_index="naive")

    def test_configs_reject_the_torus_and_the_grid_knobs(self):
        # One area geometry, the paper's rectangle; the grid is derived.
        for name, value in (("area_topology", "torus"), ("area_width_m", 200.0),
                            ("area_height_m", 200.0), ("grid_cell_m", 17.0),
                            ("grid_slack_m", 1.0)):
            with pytest.raises(TypeError):
                RadioConfig(**{name: value})
        with pytest.raises(TypeError):
            ScenarioConfig(area_topology="torus")

    def test_product_keeps_no_per_copy_state(self):
        assert "_rx_ongoing" not in Phy.__slots__
        assert not hasattr(Medium(Simulator()), "_active_receptions")
