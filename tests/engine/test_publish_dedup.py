"""Content-keyed publish dedup: a message's content is its one identity.

Companion to the ingest-layer transplant regression in
``test_ingest.py``.  A message carries no id (README, "Identifiers and
where they are computed"), so the adversary, which constructs the
objects it multicasts, has only content to work with.  A message that
copies an honest message's signature but differs from it in one field
is content-distinct: it must neither suppress the honest message at
publish nor stand in for it at adversarial delivery.
"""

import pytest

from repro.engine.bus import MessageBus
from repro.engine.errors import UndeliverableMessageError
from repro.sleepy.messages import VoteMessage, make_vote


def transplanted(victim, sender):
    """``victim``'s signature claimed by ``sender``: one field apart."""
    forged = VoteMessage(sender=sender, round=victim.round, signature=victim.signature, tip=victim.tip)
    assert forged.content_key != victim.content_key
    return forged


# ----------------------------------------------------------------------
# Publish-side: transplanted signatures and rebuilt instances
# ----------------------------------------------------------------------
def test_transplanted_signature_cannot_suppress_a_distinct_message(registry, genesis):
    """A Byzantine message carrying an honest message's signature is
    *content* distinct, so it must still be published (it is junk for
    the ingest layer to reject, not a duplicate for the bus to swallow)."""
    bus = MessageBus(2, horizon_rounds=8)
    honest = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    other = transplanted(honest, 1)
    assert bus.publish(honest)
    assert bus.publish(other)  # distinct content: not a duplicate
    assert len(bus) == 2
    assert bus.stats["duplicates"] == 0


def test_a_rebuilt_instance_cannot_republish_seen_content(registry, genesis):
    """The reverse — the same content in a fresh object — must still be
    deduplicated."""
    bus = MessageBus(1, horizon_rounds=8)
    vote = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    clone = VoteMessage(sender=0, round=0, signature=vote.signature, tip=genesis.block_id)
    assert clone is not vote
    assert bus.publish(vote)
    assert not bus.publish(clone)
    assert len(bus) == 1
    assert bus.stats["duplicates"] == 1


def test_honest_republish_still_deduplicated(registry, genesis):
    bus = MessageBus(1, horizon_rounds=8)
    vote = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    assert bus.publish(vote)
    assert not bus.publish(vote)
    assert bus.stats["duplicates"] == 1


# ----------------------------------------------------------------------
# Delivery-side: the same key discipline guards deliver_chosen
# ----------------------------------------------------------------------
def test_transplanted_signature_cannot_void_honest_delivery(registry, genesis):
    """If the adversary publishes a message carrying an honest signature
    and then 'chooses' it during an asynchronous round, the honest
    message must stay pending."""
    bus = MessageBus(1, horizon_rounds=8)
    honest = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    byz = transplanted(honest, 1)
    assert bus.publish(honest)
    assert bus.publish(byz)

    bus.deliver_chosen(0, [byz])
    # The honest vote was not delivered, so it must remain deliverable.
    assert [m.sender for m in bus.deliverable(0)] == [0]
    assert bus.deliver_all(0)[0] is honest


def test_delivery_choice_outside_pending_content_rejected(registry, genesis):
    bus = MessageBus(1, horizon_rounds=8)
    vote = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    assert bus.publish(vote)
    outsider = transplanted(vote, 1)  # carries a deliverable signature...
    with pytest.raises(UndeliverableMessageError):
        bus.deliver_chosen(0, [outsider])  # ...but its content is not pending
    # A failed choice must not corrupt delivery state.
    assert [m.sender for m in bus.deliverable(0)] == [0]


def test_equal_content_distinct_instance_is_choosable(registry, genesis):
    """Choosing by value (a re-built but content-identical instance)
    keeps working — the key is content, not object identity."""
    bus = MessageBus(1, horizon_rounds=8)
    vote = make_vote(registry, registry.secret_key(0), 0, genesis.block_id)
    assert bus.publish(vote)
    clone = VoteMessage(sender=0, round=0, signature=vote.signature, tip=genesis.block_id)
    bus.deliver_chosen(0, [clone])
    assert bus.deliverable(0) == []


def test_a_choice_mixing_pending_objects_twins_and_repeats(registry, genesis):
    """Pending objects are taken out by identity; one twin among the
    chosen sends the whole choice down the content path, which keys the
    backlog once, tolerates a repeat, and names a stray by its key."""
    bus = MessageBus(1, horizon_rounds=8)
    votes = [make_vote(registry, registry.secret_key(pid), 0, genesis.block_id) for pid in range(6)]
    for vote in votes:
        assert bus.publish(vote)
    bus.deliver_chosen(0, [votes[4], votes[1], votes[4]])
    assert [m.sender for m in bus.deliverable(0)] == [0, 2, 3, 5]
    twin = VoteMessage(sender=2, round=0, signature=votes[2].signature, tip=genesis.block_id)
    bus.deliver_chosen(0, [votes[0], twin, twin])
    assert [m.sender for m in bus.deliverable(0)] == [3, 5]
    stray = make_vote(registry, registry.secret_key(7), 0, genesis.block_id)
    with pytest.raises(UndeliverableMessageError, match=stray.signature):
        bus.deliver_chosen(0, [votes[3], stray])
    assert [m.sender for m in bus.deliverable(0)] == [3, 5]
