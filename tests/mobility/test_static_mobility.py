"""Unit tests for static placement models."""

import pytest

from repro.mobility.base import RectangularArea
from repro.mobility.static import GridMobility, StaticMobility


class TestStaticMobility:
    def test_position_constant_over_time(self):
        mobility = StaticMobility(10.0, 20.0)
        assert mobility.position(0.0) == (10.0, 20.0)
        assert mobility.position(1e6) == (10.0, 20.0)

    def test_move_to_changes_position(self):
        mobility = StaticMobility(0.0, 0.0)
        mobility.move_to(5.0, 7.0)
        assert mobility.position(3.0) == (5.0, 7.0)


class TestGridMobility:
    def test_grid_layout(self):
        assert GridMobility(0, 50.0, columns=3).position(0.0) == (0.0, 0.0)
        assert GridMobility(2, 50.0, columns=3).position(0.0) == (100.0, 0.0)
        assert GridMobility(3, 50.0, columns=3).position(0.0) == (0.0, 50.0)

    def test_default_columns_form_square(self):
        # With 9 nodes the default grid is 3x3.
        assert GridMobility(8, 10.0).position(0.0) == (20.0, 20.0)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            GridMobility(-1, 10.0)
        with pytest.raises(ValueError):
            GridMobility(0, 0.0)
        with pytest.raises(ValueError):
            GridMobility(0, 10.0, columns=0)


class TestLinePositions:
    def test_line_spacing(self):
        line = tuple(StaticMobility(i * 25.0, 0.0) for i in range(4))
        assert [m.position(0.0) for m in line] == [(0.0, 0.0), (25.0, 0.0), (50.0, 0.0), (75.0, 0.0)]


class TestRectangularArea:
    def test_contains(self):
        area = RectangularArea(100.0, 50.0)
        assert area.contains((0.0, 0.0))
        assert area.contains((100.0, 50.0))
        assert not area.contains((101.0, 10.0))
        assert not area.contains((10.0, -1.0))

    def test_random_point_inside(self):
        import random

        area = RectangularArea(30.0, 60.0)
        rng = random.Random(3)
        for _ in range(100):
            assert area.contains(area.random_point(rng))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            RectangularArea(0.0, 10.0)
