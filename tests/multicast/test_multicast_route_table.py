"""Unit tests for the multicast route table and its nearest-member logic."""

from hypothesis import given, strategies as st

from repro.multicast.route_table import GroupEntry, MulticastRouteTable


@given(
    is_member=st.booleans(),
    hops=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.tuples(st.booleans(), st.booleans()),  # (enabled, is_upstream)
        max_size=8,
    ),
)
def test_on_tree_and_leaf_router_equal_their_sorted_list_definitions(is_member, hops):
    # ``on_tree`` runs per received data copy and no longer builds the sorted
    # list; the list-based forms below are the definitions it must equal.
    entry = GroupEntry(group=1, is_member=is_member)
    for neighbor, (enabled, is_upstream) in hops.items():
        entry.add_next_hop(neighbor, enabled=enabled, is_upstream=is_upstream)
    tree = entry.tree_neighbors()
    assert tree == sorted(n for n, (enabled, _) in hops.items() if enabled)
    assert entry.on_tree is (is_member or bool(tree))
    assert entry.is_leaf_router is (not is_member and len(tree) <= 1)


class TestNextHops:
    def test_add_and_enable_next_hop(self):
        entry = GroupEntry(group=1)
        entry.add_next_hop(5)
        assert entry.tree_neighbors() == []
        entry.enable_next_hop(5)
        assert entry.tree_neighbors() == [5]

    def test_add_next_hop_is_idempotent_and_keeps_flags(self):
        entry = GroupEntry(group=1)
        entry.add_next_hop(5, enabled=True)
        entry.add_next_hop(5)
        assert entry.next_hops[5].enabled

    def test_upstream_designation_is_exclusive(self):
        entry = GroupEntry(group=1)
        entry.enable_next_hop(3, is_upstream=True)
        entry.enable_next_hop(7, is_upstream=True)
        assert entry.upstream() == 7
        assert entry.downstream() == [3]

    def test_remove_next_hop(self):
        entry = GroupEntry(group=1)
        entry.enable_next_hop(3)
        removed = entry.remove_next_hop(3)
        assert removed is not None
        assert entry.tree_neighbors() == []
        assert entry.remove_next_hop(3) is None

    def test_potential_neighbors_include_disabled(self):
        entry = GroupEntry(group=1)
        entry.add_next_hop(4)
        entry.enable_next_hop(9)
        assert entry.potential_neighbors() == [4, 9]
        assert entry.tree_neighbors() == [9]


class TestTreeMembershipPredicates:
    def test_on_tree_for_member_without_links(self):
        entry = GroupEntry(group=1, is_member=True)
        assert entry.on_tree

    def test_on_tree_for_router_with_enabled_links(self):
        entry = GroupEntry(group=1)
        assert not entry.on_tree
        entry.enable_next_hop(2)
        assert entry.on_tree

    def test_leaf_router_detection(self):
        entry = GroupEntry(group=1)
        entry.enable_next_hop(2)
        assert entry.is_leaf_router
        entry.enable_next_hop(3)
        assert not entry.is_leaf_router
        entry.is_member = True
        assert not entry.is_leaf_router


class TestNearestMember:
    def test_default_distance_is_infinity_like(self):
        entry = GroupEntry(group=1)
        assert entry.nearest_member_via(99) == 64

    def test_set_nearest_member_reports_changes(self):
        entry = GroupEntry(group=1)
        entry.enable_next_hop(2)
        assert entry.set_nearest_member(2, 3)
        assert not entry.set_nearest_member(2, 3)
        assert entry.nearest_member_via(2) == 3

    def test_set_nearest_member_unknown_neighbor_ignored(self):
        entry = GroupEntry(group=1)
        assert not entry.set_nearest_member(5, 2)

    def test_advertised_distance_member_node(self):
        # A member advertises distance 1 (itself) towards every neighbour.
        entry = GroupEntry(group=1, is_member=True)
        entry.enable_next_hop(2)
        entry.enable_next_hop(3)
        assert entry.advertised_distance_to(2) == 1
        assert entry.advertised_distance_to(3) == 1

    def test_advertised_distance_excludes_target_neighbor(self):
        # Paper example: D sends 1 + min(c, e) to B.
        entry = GroupEntry(group=1)
        for neighbor, distance in ((1, 4), (2, 2), (3, 7)):
            entry.enable_next_hop(neighbor)
            entry.set_nearest_member(neighbor, distance)
        assert entry.advertised_distance_to(1) == 3   # 1 + min(2, 7)
        assert entry.advertised_distance_to(2) == 5   # 1 + min(4, 7)
        assert entry.advertised_distance_to(3) == 3   # 1 + min(4, 2)

    def test_advertised_distance_capped_at_infinity(self):
        entry = GroupEntry(group=1)
        entry.enable_next_hop(2)
        assert entry.advertised_distance_to(2, infinity=64) == 64

    def test_member_with_closer_downstream_still_advertises_one(self):
        entry = GroupEntry(group=1, is_member=True)
        entry.enable_next_hop(2)
        entry.enable_next_hop(3)
        entry.set_nearest_member(3, 1)
        assert entry.advertised_distance_to(2) == 1


class TestMulticastRouteTable:
    def test_get_or_create_and_entry(self):
        table = MulticastRouteTable()
        assert table.entry(5) is None
        created = table.get_or_create(5)
        assert table.entry(5) is created
        assert table.get_or_create(5) is created
        assert len(table) == 1

    def test_remove_group(self):
        table = MulticastRouteTable()
        table.get_or_create(5)
        table.remove(5)
        assert table.entry(5) is None
        table.remove(5)  # removing twice is fine

    def test_groups_listing(self):
        table = MulticastRouteTable()
        table.get_or_create(9)
        table.get_or_create(2)
        assert table.groups() == [2, 9]
