"""Integration tests: multicast data dissemination over the MAODV tree."""

from repro.multicast.messages import MulticastData
from tests.conftest import GROUP, build_network, line_topology, python_calls


def _attach_sink(network, member):
    received = []
    network.maodv[member].add_delivery_listener(lambda data: received.append(data.seq))
    return received


def _build_joined_line(count, members, spacing=60.0, range_m=80.0, settle=20.0):
    network = build_network(line_topology(count, spacing), range_m=range_m)
    network.start()
    network.join_all(members, spacing_s=3.0)
    sinks = {member: _attach_sink(network, member) for member in members}
    network.run(settle)
    return network, sinks


class TestDataDissemination:
    def test_data_reaches_all_members_over_line(self):
        network, sinks = _build_joined_line(4, [0, 3])
        for _ in range(5):
            network.maodv[0].send_data(GROUP, 64)
            network.run(0.5)
        network.run(2.0)
        assert sinks[3] == [1, 2, 3, 4, 5]

    def test_source_member_delivers_to_itself(self):
        network, sinks = _build_joined_line(3, [0, 2])
        network.maodv[0].send_data(GROUP, 64)
        network.run(1.0)
        assert sinks[0] == [1]

    def test_data_from_middle_member_reaches_both_ends(self):
        network, sinks = _build_joined_line(5, [0, 2, 4])
        network.maodv[2].send_data(GROUP, 64)
        network.run(2.0)
        assert sinks[0] == [1]
        assert sinks[4] == [1]

    def test_non_member_routers_do_not_deliver(self):
        network, sinks = _build_joined_line(4, [0, 3])
        router_received = _attach_sink(network, 1)
        network.maodv[0].send_data(GROUP, 64)
        network.run(2.0)
        assert router_received == []

    def test_duplicate_data_suppressed(self):
        network, sinks = _build_joined_line(4, [0, 3])
        network.maodv[0].send_data(GROUP, 64)
        network.run(2.0)
        total_duplicates = sum(
            network.maodv[n].stats.data_duplicates for n in range(4)
        )
        # Whatever the tree looks like, no member delivered the packet twice.
        assert sinks[3] == [1]
        assert total_duplicates >= 0

    def test_sequence_numbers_increase_per_source(self):
        network, sinks = _build_joined_line(3, [0, 2])
        first = network.maodv[0].send_data(GROUP, 64)
        second = network.maodv[0].send_data(GROUP, 64)
        assert (first.source, first.seq) == (0, 1)
        assert (second.source, second.seq) == (0, 2)

    def test_off_tree_node_ignores_data(self):
        # Node 4 is in radio range of the tree but never joined it.
        network, sinks = _build_joined_line(5, [0, 3])
        outsider_received = _attach_sink(network, 4)
        network.maodv[0].send_data(GROUP, 64)
        network.run(2.0)
        assert outsider_received == []
        assert not network.maodv[4].is_on_tree(GROUP)

    def test_send_without_tree_still_delivers_locally(self):
        network = build_network(line_topology(2, 60.0), range_m=100)
        received = _attach_sink(network, 0)
        network.start()
        network.sim.call_at(0.2, network.maodv[0].join_group, (GROUP,))
        network.run(5.0)
        network.maodv[0].send_data(GROUP, 64)
        network.run(1.0)
        assert received == [1]


class TestDeliveryCounters:
    def test_stats_track_origination_and_delivery(self):
        network, sinks = _build_joined_line(4, [0, 3])
        for _ in range(3):
            network.maodv[0].send_data(GROUP, 64)
            network.run(0.5)
        network.run(2.0)
        assert network.maodv[0].stats.data_originated == 3
        assert network.maodv[3].stats.data_delivered == 3
        forwarded = sum(network.maodv[n].stats.data_forwarded for n in (1, 2))
        assert forwarded >= 3


class TestNoOpPathsAreOneFrame:
    """Most data copies a node decodes end in one of ``_on_multicast_data``'s
    first four tests; up to there the handler is a single Python frame."""

    @staticmethod
    def _frames(router, seq, from_node):
        data = MulticastData(origin=0, destination=GROUP, group=GROUP, source=0, seq=seq)
        return python_calls(router._on_multicast_data, data, from_node)

    def test_no_entry_for_the_group(self):
        router = build_network(line_topology(2, 60.0)).maodv[1]
        assert self._frames(router, 1, 0) == ["_on_multicast_data"]
        assert router.table.entry(GROUP) is None

    def test_entry_that_is_not_on_the_tree(self):
        router = build_network(line_topology(2, 60.0)).maodv[1]
        router.table.get_or_create(GROUP).add_next_hop(0, enabled=False)
        assert self._frames(router, 1, 0) == ["_on_multicast_data"]
        assert router.stats.data_rejected_off_tree == 0 and not router._seen_data

    def test_off_tree_sender_and_duplicate_only_bump_their_counter(self):
        router = build_network(line_topology(3, 60.0)).maodv[1]
        router.table.get_or_create(GROUP).enable_next_hop(0)
        assert self._frames(router, 1, 2) == ["_on_multicast_data"]
        assert router.stats.data_rejected_off_tree == 1
        assert len(self._frames(router, 1, 0)) > 1  # accepted: remembered, nobody to forward to
        assert self._frames(router, 1, 0) == ["_on_multicast_data"]
        assert router.stats.data_duplicates == 1 and router.stats.data_rejected_off_tree == 1
