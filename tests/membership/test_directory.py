"""Unit tests for the membership directory (state, events, intervals)."""

import pytest

from repro.membership.directory import MembershipDirectory


class TestJoinLeave:
    def test_join_adds_member_and_opens_interval(self):
        directory = MembershipDirectory(2)
        assert directory.record_join(0, 5, 10.0)
        assert directory.members(0) == [5]
        assert directory.members(1) == []
        assert directory.intervals(0, 5) == [(10.0, None)]

    def test_duplicate_join_is_a_noop(self):
        directory = MembershipDirectory(1)
        assert directory.record_join(0, 5, 10.0)
        assert not directory.record_join(0, 5, 12.0)
        assert directory.intervals(0, 5) == [(10.0, None)]
        assert len(directory.events) == 1

    def test_leave_closes_interval(self):
        directory = MembershipDirectory(1)
        directory.record_join(0, 5, 10.0)
        assert directory.record_leave(0, 5, 30.0)
        assert directory.members(0) == []
        assert directory.intervals(0, 5) == [(10.0, 30.0)]

    def test_leave_of_non_member_is_a_noop(self):
        directory = MembershipDirectory(1)
        assert not directory.record_leave(0, 5, 30.0)
        assert directory.events == []

    def test_rejoin_opens_second_interval(self):
        directory = MembershipDirectory(1)
        directory.record_join(0, 5, 10.0)
        directory.record_leave(0, 5, 30.0)
        directory.record_join(0, 5, 40.0)
        assert directory.intervals(0, 5) == [(10.0, 30.0), (40.0, None)]
        assert [(event.time_s, event.kind) for event in directory.events] == [
            (10.0, "join"), (30.0, "leave"), (40.0, "join"),
        ]

    def test_group_count_validation(self):
        with pytest.raises(ValueError):
            MembershipDirectory(0)


class TestQueries:
    def test_ever_members_includes_departed_nodes(self):
        directory = MembershipDirectory(1)
        directory.record_join(0, 5, 10.0)
        directory.record_join(0, 2, 11.0)
        directory.record_leave(0, 5, 30.0)
        assert directory.members(0) == [2]
        assert directory.ever_members(0) == [2, 5]

    def test_groups_are_independent(self):
        directory = MembershipDirectory(2)
        directory.record_join(0, 5, 10.0)
        directory.record_join(1, 5, 20.0)
        directory.record_leave(0, 5, 30.0)
        assert not directory.is_member(0, 5)
        assert directory.is_member(1, 5)
        assert directory.intervals(1, 5) == [(20.0, None)]
