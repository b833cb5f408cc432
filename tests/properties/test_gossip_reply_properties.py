"""The one-pass gossip reply equals the two-path design it replaced.

A responder's reply to a gossip request is built from its history table in
one pass (``GossipAgent._collect_reply_messages``); the two-path design it
replaced is kept as an oracle in ``tests/core/reference_gossip.py``.  Each
example drives a real :class:`LostTable` through the initiator's receptions
(gaps, duplicates, out-of-order recoveries, and optionally a mid-run join
that baselines each source at its first observation), fills a real
:class:`HistoryTable` at the responder, builds the request as
``_build_request`` does, and compares the two replies message for message.

The one pass offers no message twice because of a fact it does not check:
a listed loss lies below its source's expected number.  That fact is
asserted here directly on every request.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gossip import GossipAgent
from repro.core.history import HistoryTable
from repro.core.lost_table import LostTable
from repro.core.messages import GossipRequest
from repro.mobility.static import StaticMobility
from repro.multicast.messages import MulticastData
from repro.net.addressing import make_group_address
from repro.net.config import RadioConfig
from repro.net.medium import Medium
from repro.net.node import Node
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.core.reference_gossip import collect_reply_messages

GROUP = make_group_address(0)
SOURCES = 3
LAST_SEQ = 12

_message_id = st.tuples(st.integers(0, SOURCES - 1), st.integers(1, LAST_SEQ))
_message_ids = st.lists(_message_id, max_size=40)
#: Histories long enough that the reply's size limit bites.
_long_histories = st.lists(_message_id, min_size=20, max_size=40)


def _data(source, seq):
    # Each source sends one message a second, so ``sent_at`` grows with
    # ``seq`` and a join time splits every source's stream in two.
    return MulticastData(
        origin=source, destination=GROUP, size_bytes=84, group=GROUP,
        source=source, seq=seq, sent_at=seq + 0.1 * source,
    )


class _Member:
    """The multicast surface a responder's agent reads: it is a member."""

    def is_member(self, group):
        return True

    def add_delivery_listener(self, listener):
        pass


def _responder(history):
    sim = Simulator()
    node = Node(SOURCES + 1, sim, Medium(sim, RadioConfig()), StaticMobility(0, 0),
                RandomStreams(1))
    agent = GossipAgent(node, _Member(), None, GROUP)
    agent.history = history
    return agent


@given(
    received=_message_ids,
    held=st.one_of(_message_ids, _long_histories),
    capacity=st.integers(1, 30),
    lost_buffer=st.integers(1, 15),
    initiator=st.integers(0, SOURCES),
    # Whole seconds are source 0's send times: a message sent at the join.
    joined_at=st.one_of(
        st.none(), st.integers(0, LAST_SEQ + 1).map(float), st.floats(0.0, LAST_SEQ + 1.0)
    ),
)
# A message sent at the very instant of the join is post-join.
@example(received=[], held=[(0, 3)], capacity=5, lost_buffer=3, initiator=SOURCES, joined_at=3.0)
@settings(max_examples=300, deadline=None)
def test_one_pass_reply_equals_the_two_path_reply(
    received, held, capacity, lost_buffer, initiator, joined_at
):
    lost_table = LostTable(baseline_first_observation=joined_at is not None)
    for source, seq in received:
        lost_table.observe(source, seq)
    history = HistoryTable(capacity=capacity)
    for source, seq in held:
        history.add(_data(source, seq))

    lost = lost_table.most_recent_lost(lost_buffer)
    expected = lost_table.expected_map()
    for source, seq in lost:
        assert seq < expected[source]
    request = GossipRequest(
        origin=initiator, destination=GROUP, group=GROUP, initiator=initiator,
        lost=list(lost), expected=expected, joined_at=joined_at,
    )

    reply = _responder(history)._collect_reply_messages(request)
    oracle = collect_reply_messages(history, request)
    assert [message.mid for message in reply] == [message.mid for message in oracle]
    assert all(a is b for a, b in zip(reply, oracle))
