"""Unit tests for named random streams."""

from repro.sim.random import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "mac") == derive_seed(42, "mac")

    def test_differs_by_name(self):
        assert derive_seed(42, "mac") != derive_seed(42, "mobility")

    def test_differs_by_master_seed(self):
        assert derive_seed(1, "mac") != derive_seed(2, "mac")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(7, "x") < 2**64


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_return_independent_streams(self):
        streams = RandomStreams(1)
        a = streams.get("a")
        b = streams.get("b")
        assert a is not b
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_reproducible_across_instances(self):
        first = RandomStreams(99).get("mobility")
        second = RandomStreams(99).get("mobility")
        assert [first.random() for _ in range(10)] == [second.random() for _ in range(10)]

    def test_per_node_streams_are_distinct(self):
        streams = RandomStreams(3)
        node_a = streams.for_node("mac", 1)
        node_b = streams.for_node("mac", 2)
        assert [node_a.random() for _ in range(5)] != [node_b.random() for _ in range(5)]

    def test_for_node_is_cached(self):
        streams = RandomStreams(3)
        assert streams.for_node("mac", 1) is streams.for_node("mac", 1)
