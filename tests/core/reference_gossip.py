"""Reference gossip reply: the oracle the one-pass reply is proven against.

``GossipAgent._collect_reply_messages`` builds a reply in one pass over the
history's candidates.  The design it replaced lives on here, test-only: two
code paths (with and without a join cutoff), count-limited history fetches
and a set that skips a message already taken.  Its body is the old agent
method's, with the history table's two removed helpers (``lookup_many`` and
the ``limit`` of ``messages_at_or_after``) written out below it.

``tests/properties/test_gossip_reply_properties.py`` proves the two equal on
requests built from real lost and history tables.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from typing import List

from repro.core.gossip import MAX_MESSAGES_PER_REPLY
from repro.core.history import HistoryTable
from repro.core.lost_table import INITIAL_EXPECTED_SEQ
from repro.core.messages import GossipRequest, MessageId
from repro.multicast.messages import MulticastData
from repro.net.addressing import NodeId


def collect_reply_messages(history: HistoryTable, request: GossipRequest) -> List[MulticastData]:
    """The messages the two-path design put in the reply to ``request``."""
    limit = MAX_MESSAGES_PER_REPLY
    # A mid-run joiner is served exactly the post-join suffix: every
    # candidate -- even one the joiner explicitly lists as lost, which
    # can reference a pre-join message when its baseline packet was sent
    # before the join but delivered (or recovered) after it -- must have
    # been sent at or after the subscription start.
    cutoff = request.joined_at
    # With a join cutoff the lost-list lookup must not be count-limited
    # either: the first ``limit`` hits may all be pre-join entries (a
    # late-delivered pre-join baseline packet seeds the joiner's lost
    # table with pre-join gaps), so filter first, truncate after.
    if cutoff is None:
        messages = _lookup_many(history, list(request.lost), limit)
    else:
        messages = [
            message
            for message in _lookup_many(history, list(request.lost), len(request.lost))
            if message.sent_at >= cutoff
        ][:limit]
    found_ids = {message.message_id() for message in messages}

    def offer(source: NodeId, from_seq: int) -> None:
        if len(messages) >= limit or source == request.initiator:
            return
        # With a join cutoff the fetch cannot be count-limited: the
        # lowest-seq candidates may all be pre-join, and truncating
        # before the sent_at filter would starve the post-join suffix.
        count = len(history) if cutoff is not None else limit - len(messages)
        for candidate in _messages_at_or_after(history, source, from_seq, count):
            if cutoff is not None and candidate.sent_at < cutoff:
                continue
            if candidate.message_id() not in found_ids:
                messages.append(candidate)
                found_ids.add(candidate.message_id())
                if len(messages) >= limit:
                    return

    # Messages newer than what the initiator expects from sources it knows.
    for source, expected_seq in request.expected.items():
        offer(source, expected_seq)
    # Sources the initiator has never heard from at all: everything in the
    # history is news to it.
    known_sources = set(request.expected)
    for source in {message_id[0] for message_id in history.message_ids()}:
        if source not in known_sources:
            offer(source, INITIAL_EXPECTED_SEQ)
    return messages[:limit]


def _lookup_many(
    history: HistoryTable, message_ids: List[MessageId], limit: int
) -> List[MulticastData]:
    """Up to ``limit`` stored messages among ``message_ids``."""
    found: List[MulticastData] = []
    for message_id in message_ids:
        message = history.get(message_id)
        if message is not None:
            found.append(message)
            if len(found) >= limit:
                break
    return found


def _messages_at_or_after(
    history: HistoryTable, source: int, seq: int, limit: int
) -> List[MulticastData]:
    """The first ``limit`` held messages of ``source`` at or after ``seq``."""
    found = [
        message
        for message in history
        if message.source == source and message.seq >= seq
    ]
    found.sort(key=lambda message: message.seq)
    return found[:limit]
