"""Unit tests for the GossipAgent protocol logic over fake lower layers.

These tests isolate the agent's decisions (anonymous vs cached gossip,
accept vs propagate, reply construction, goodput accounting) from the radio,
MAC, AODV and MAODV machinery by using controllable fakes.
"""

from typing import List, Tuple

import pytest

from repro.core.config import GossipConfig
from repro.core.gossip import MAX_MESSAGES_PER_REPLY, GossipAgent
from repro.core.messages import GossipReply, GossipRequest
from repro.mobility.static import StaticMobility
from repro.multicast.messages import MulticastData
from repro.net.addressing import make_group_address
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.routing.route_table import RouteTable
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

GROUP = make_group_address(0)


class FakeMulticast:
    """A scriptable stand-in for the MAODV router."""

    def __init__(self, member=True, neighbors=(), nearest=None):
        self.member = member
        self.neighbors = list(neighbors)
        self.nearest = dict(nearest or {})
        self.listeners = []

    def is_member(self, group):
        return self.member

    def tree_neighbors(self, group):
        return list(self.neighbors)

    def nearest_member_via(self, group, neighbor):
        return self.nearest.get(neighbor, 64)

    def add_delivery_listener(self, listener):
        self.listeners.append(listener)

    def deliver(self, data):
        for listener in self.listeners:
            listener(data)


class FakeAodv:
    """Captures unicast sends instead of routing them."""

    def __init__(self):
        self.route_table = RouteTable()
        self.sent: List[Tuple[object, int]] = []

    def send_unicast(self, payload, destination):
        self.sent.append((payload, destination))


def _make_agent(member=True, neighbors=(), nearest=None, config=None, node_id=0, seed=1):
    sim = Simulator()
    medium = Medium(sim, RadioConfig())
    node = Node(node_id, sim, medium, StaticMobility(0, 0), RandomStreams(seed))
    frames: List[Tuple[object, int]] = []
    node.send_frame = lambda packet, next_hop: frames.append((packet, next_hop)) or True
    multicast = FakeMulticast(member=member, neighbors=neighbors, nearest=nearest)
    aodv = FakeAodv()
    agent = GossipAgent(node, multicast, aodv, GROUP, config or GossipConfig())
    return agent, multicast, aodv, frames, sim


def _data(source, seq, sent_at=0.0):
    return MulticastData(
        origin=source, destination=GROUP, size_bytes=84, group=GROUP, source=source,
        seq=seq, sent_at=sent_at,
    )


class TestReceptionTracking:
    def test_delivery_updates_history_and_expectations(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 2))
        assert agent.has_received(7, 1)
        assert agent.has_received(7, 2)
        assert len(agent.lost_table) == 0

    def test_gap_detected_as_loss(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 4))
        assert agent.lost_table.is_lost(7, 2)
        assert agent.lost_table.is_lost(7, 3)

    def test_source_learned_into_member_cache(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        assert 7 in agent.member_cache

    def test_foreign_group_data_ignored(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        other_group_data = MulticastData(
            origin=7, destination=GROUP + 1, size_bytes=84, group=GROUP + 1, source=7, seq=1
        )
        multicast.deliver(other_group_data)
        assert not agent.has_received(7, 1)


class TestGossipRounds:
    def test_anonymous_round_sends_request_to_tree_neighbor(self):
        config = GossipConfig(p_anon=1.0, enable_cached_gossip=False)
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4, 9], config=config)
        multicast.deliver(_data(7, 3))  # creates losses 1, 2
        agent._gossip_round()
        assert len(frames) == 1
        request, next_hop = frames[0]
        assert isinstance(request, GossipRequest)
        assert next_hop in (4, 9)
        assert request.initiator == agent.node_id
        assert set(request.lost) == {(7, 1), (7, 2)}
        assert request.expected == {7: 4}
        assert not request.direct

    def test_round_skipped_when_no_tree_neighbors(self):
        config = GossipConfig(p_anon=1.0, enable_cached_gossip=False)
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[], config=config)
        agent._gossip_round()
        assert frames == []
        assert agent.stats.rounds_skipped_no_neighbor == 1

    def test_non_member_never_gossips(self):
        agent, multicast, aodv, frames, sim = _make_agent(member=False, neighbors=[4])
        agent._gossip_round()
        assert frames == []
        assert agent.stats.rounds == 0

    def test_cached_round_unicasts_to_cached_member(self):
        config = GossipConfig(p_anon=0.0, enable_cached_gossip=True)
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4], config=config)
        agent.member_cache.note_member(12, numhops=3, now=0.0)
        agent._gossip_round()
        assert frames == []
        assert len(aodv.sent) == 1
        request, destination = aodv.sent[0]
        assert destination == 12
        assert isinstance(request, GossipRequest)
        assert request.direct

    def test_cached_round_falls_back_to_anonymous_with_empty_cache(self):
        config = GossipConfig(p_anon=0.0, enable_cached_gossip=True)
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4], config=config)
        agent._gossip_round()
        assert len(frames) == 1
        assert aodv.sent == []

    def test_lost_buffer_bounded_by_config(self):
        config = GossipConfig(p_anon=1.0, enable_cached_gossip=False, lost_buffer_size=3)
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4], config=config)
        multicast.deliver(_data(7, 50))   # 49 losses
        agent._gossip_round()
        request, _ = frames[0]
        assert len(request.lost) == 3


class TestLocalityBias:
    def test_locality_prefers_nearby_members(self):
        config = GossipConfig(p_anon=1.0, enable_cached_gossip=False, enable_locality=True)
        agent, multicast, aodv, frames, sim = _make_agent(
            neighbors=[4, 9], nearest={4: 1, 9: 10}, config=config
        )
        choices = [agent._choose_next_hop(exclude=None) for _ in range(300)]
        near = choices.count(4)
        far = choices.count(9)
        assert near + far == 300
        assert near > far * 3

    def test_without_locality_choice_is_uniform(self):
        config = GossipConfig(p_anon=1.0, enable_cached_gossip=False, enable_locality=False)
        agent, multicast, aodv, frames, sim = _make_agent(
            neighbors=[4, 9], nearest={4: 1, 9: 10}, config=config
        )
        choices = [agent._choose_next_hop(exclude=None) for _ in range(400)]
        near = choices.count(4)
        assert 120 < near < 280

    def test_exclusion_removes_arrival_hop(self):
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4, 9])
        choices = {agent._choose_next_hop(exclude=4) for _ in range(50)}
        assert choices == {9}


class TestRequestHandling:
    def test_member_accepts_direct_request_and_replies(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 2))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[(7, 1)], expected={7: 2}, direct=True,
        )
        agent._on_request(request, 5)
        assert len(aodv.sent) == 1
        reply, destination = aodv.sent[0]
        assert destination == 5
        assert isinstance(reply, GossipReply)
        assert [(m.source, m.seq) for m in reply.messages] == [(7, 1), (7, 2)]

    def test_reply_covers_expected_sequence_numbers(self):
        # The initiator has everything it knows about, but the responder holds
        # newer messages the initiator has not seen announced yet.
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 2))
        multicast.deliver(_data(7, 3))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[], expected={7: 2}, direct=True,
        )
        agent._on_request(request, 5)
        reply, _ = aodv.sent[0]
        assert [(m.source, m.seq) for m in reply.messages] == [(7, 2), (7, 3)]

    def test_reply_bootstraps_initiator_with_unknown_source(self):
        # The initiator never received anything, so its expected map is empty;
        # the responder must still offer what it holds (this is how gossip
        # rescues a member that was cut off before its first packet).
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 2))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[], expected={}, direct=True,
        )
        agent._on_request(request, 5)
        assert len(aodv.sent) == 1
        reply, _ = aodv.sent[0]
        assert [(m.source, m.seq) for m in reply.messages] == [(7, 1), (7, 2)]

    def test_reply_never_offers_initiators_own_messages(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(5, 1))   # message originated by the initiator
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[], expected={}, direct=True,
        )
        agent._on_request(request, 5)
        assert aodv.sent == []

    def test_joined_at_serves_exactly_the_post_join_suffix(self):
        # A mid-run joiner (join time carried) gets unknown
        # sources served, but only messages *sent* after its join.
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1, sent_at=5.0))
        multicast.deliver(_data(7, 2, sent_at=10.0))
        multicast.deliver(_data(7, 3, sent_at=15.0))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[], expected={}, direct=True, joined_at=8.0,
        )
        agent._on_request(request, 5)
        reply, _ = aodv.sent[0]
        assert [(m.source, m.seq) for m in reply.messages] == [(7, 2), (7, 3)]

    def test_joined_at_filters_explicitly_listed_losses(self):
        # Even a loss the joiner itself lists (possible when its baseline
        # packet was sent pre-join but recovered post-join) is withheld when
        # it predates the subscription.
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1, sent_at=5.0))
        multicast.deliver(_data(7, 2, sent_at=10.0))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[(7, 1)], expected={7: 2}, direct=True, joined_at=8.0,
        )
        agent._on_request(request, 5)
        reply, _ = aodv.sent[0]
        assert [(m.source, m.seq) for m in reply.messages] == [(7, 2)]

    def test_joined_at_suffix_survives_a_long_pre_join_history(self):
        # Regression: the candidate fetch used to be count-limited *before*
        # the sent_at filter, so a source with >= MAX_MESSAGES_PER_REPLY
        # pre-join messages starved the post-join suffix entirely.
        agent, multicast, aodv, frames, sim = _make_agent()
        limit = MAX_MESSAGES_PER_REPLY
        for seq in range(1, limit + 3):
            multicast.deliver(_data(7, seq, sent_at=float(seq)))  # pre-join
        post_join = [limit + 3, limit + 4, limit + 5]
        for seq in post_join:
            multicast.deliver(_data(7, seq, sent_at=100.0 + seq))  # post-join
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[], expected={}, direct=True, joined_at=100.0,
        )
        agent._on_request(request, 5)
        assert len(aodv.sent) == 1
        reply, _ = aodv.sent[0]
        assert [(m.source, m.seq) for m in reply.messages] == [
            (7, seq) for seq in post_join
        ]

    def test_joined_at_lost_list_survives_a_long_pre_join_lost_prefix(self):
        # Regression: the lost-list lookup used to be count-limited before
        # the sent_at filter, so a lost list headed by >= limit pre-join
        # entries starved genuinely post-join losses from the reply.
        agent, multicast, aodv, frames, sim = _make_agent()
        limit = MAX_MESSAGES_PER_REPLY
        lost = []
        for seq in range(1, limit + 2):
            multicast.deliver(_data(7, seq, sent_at=float(seq)))  # pre-join
            lost.append((7, seq))
        multicast.deliver(_data(9, 1, sent_at=150.0))  # post-join loss
        lost.append((9, 1))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=lost, expected={7: limit + 2, 9: 2}, direct=True,
            joined_at=100.0,
        )
        agent._on_request(request, 5)
        assert len(aodv.sent) == 1
        reply, _ = aodv.sent[0]
        assert (9, 1) in [(m.source, m.seq) for m in reply.messages]
        assert all(m.sent_at >= 100.0 for m in reply.messages)

    def test_membership_join_stamps_requests_with_join_time(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        sim.run(until=12.5)
        agent.on_membership_join()
        request = agent._build_request()
        assert request.joined_at == 12.5
        # Run-long members advertise no join time at all.
        fresh_agent, _, _, _, _ = _make_agent()
        assert fresh_agent._build_request().joined_at is None

    def test_no_reply_when_nothing_to_offer(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[(7, 1)], expected={}, direct=True,
        )
        agent._on_request(request, 5)
        assert aodv.sent == []

    def test_reply_bounded_by_max_messages(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        offered = MAX_MESSAGES_PER_REPLY + 5
        for seq in range(1, offered + 1):
            multicast.deliver(_data(7, seq))
        request = GossipRequest(
            origin=5, destination=agent.node_id, group=GROUP, initiator=5,
            lost=[(7, 1), (7, 2), (7, 3)], expected={7: 4}, direct=True,
        )
        agent._on_request(request, 5)
        reply, _ = aodv.sent[0]
        assert len(reply.messages) == MAX_MESSAGES_PER_REPLY

    def test_own_request_dropped(self):
        agent, multicast, aodv, frames, sim = _make_agent(neighbors=[4])
        request = GossipRequest(
            origin=agent.node_id, destination=GROUP, group=GROUP,
            initiator=agent.node_id, lost=[], expected={},
        )
        agent._on_request(request, 4)
        assert frames == []
        assert aodv.sent == []
        assert agent.stats.requests_dropped == 1

    def test_non_member_router_propagates_request(self):
        agent, multicast, aodv, frames, sim = _make_agent(member=False, neighbors=[4, 9])
        request = GossipRequest(
            origin=5, destination=GROUP, group=GROUP, initiator=5,
            lost=[(7, 1)], expected={}, hops_remaining=8,
        )
        agent._on_request(request, 4)
        assert len(frames) == 1
        forwarded, next_hop = frames[0]
        assert next_hop == 9          # arrival hop excluded
        assert forwarded.hops_remaining == 7
        assert forwarded.initiator == 5
        assert aodv.sent == []

    def test_request_dropped_when_hop_budget_exhausted_at_router(self):
        agent, multicast, aodv, frames, sim = _make_agent(member=False, neighbors=[4, 9])
        request = GossipRequest(
            origin=5, destination=GROUP, group=GROUP, initiator=5,
            lost=[], expected={}, hops_remaining=1,
        )
        agent._on_request(request, 4)
        assert frames == []
        assert agent.stats.requests_dropped == 1

    def test_member_accepts_when_hop_budget_exhausted(self):
        agent, multicast, aodv, frames, sim = _make_agent(member=True, neighbors=[4, 9])
        multicast.deliver(_data(7, 1))
        request = GossipRequest(
            origin=5, destination=GROUP, group=GROUP, initiator=5,
            lost=[(7, 1)], expected={}, hops_remaining=1,
        )
        agent._on_request(request, 4)
        assert len(aodv.sent) == 1

    def test_member_coin_flip_accept_or_propagate(self):
        accepted = forwarded = 0
        for seed in range(40):
            agent, multicast, aodv, frames, sim = _make_agent(
                member=True, neighbors=[4, 9], seed=seed
            )
            multicast.deliver(_data(7, 1))
            request = GossipRequest(
                origin=5, destination=GROUP, group=GROUP, initiator=5,
                lost=[(7, 1)], expected={}, hops_remaining=8,
            )
            agent._on_request(request, 4)
            if aodv.sent:
                accepted += 1
            elif frames:
                forwarded += 1
        assert accepted > 5
        assert forwarded > 5


class TestReplyHandling:
    def test_recovered_message_counted_and_delivered(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        recovered = []
        agent.add_recovery_listener(lambda data: recovered.append(data.message_id()))
        multicast.deliver(_data(7, 1))
        multicast.deliver(_data(7, 3))
        reply = GossipReply(
            origin=9, destination=agent.node_id, group=GROUP, responder=9,
            messages=[_data(7, 2)],
        )
        agent._on_reply(reply, 9)
        assert recovered == [(7, 2)]
        assert agent.stats.recovered_messages == 1
        assert agent.stats.duplicate_messages == 0
        assert agent.has_received(7, 2)

    def test_duplicate_reply_message_counted_as_redundant(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        reply = GossipReply(
            origin=9, destination=agent.node_id, group=GROUP, responder=9,
            messages=[_data(7, 1)],
        )
        agent._on_reply(reply, 9)
        assert agent.stats.duplicate_messages == 1
        assert agent.stats.recovered_messages == 0

    def test_goodput_computation(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        multicast.deliver(_data(7, 1))
        reply = GossipReply(
            origin=9, destination=agent.node_id, group=GROUP, responder=9,
            messages=[_data(7, 1), _data(7, 2), _data(7, 3)],
        )
        agent._on_reply(reply, 9)
        assert agent.stats.goodput_percent == pytest.approx(100.0 * 2 / 3)

    def test_goodput_defaults_to_hundred_with_no_replies(self):
        agent, *_ = _make_agent()
        assert agent.stats.goodput_percent == 100.0

    def test_responder_learned_into_member_cache(self):
        agent, multicast, aodv, frames, sim = _make_agent()
        reply = GossipReply(
            origin=9, destination=agent.node_id, group=GROUP, responder=9,
            messages=[_data(7, 1)],
        )
        agent._on_reply(reply, 9)
        assert 9 in agent.member_cache

    def test_non_member_ignores_replies(self):
        agent, multicast, aodv, frames, sim = _make_agent(member=False)
        reply = GossipReply(
            origin=9, destination=agent.node_id, group=GROUP, responder=9,
            messages=[_data(7, 1)],
        )
        agent._on_reply(reply, 9)
        assert agent.stats.replies_received == 0
