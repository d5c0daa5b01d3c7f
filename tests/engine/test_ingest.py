"""The shared ingest pipeline: the verdict table, batch sharing, safety."""

import pytest

from repro.chain.block import Block
from repro.engine.ingest import IngestPipeline
from repro.sleepy.messages import (
    EQUIVOCATED_VOTE,
    REJECTED,
    MessageInterner,
    VoteMessage,
    make_ack,
    make_propose,
    make_vote,
)


@pytest.fixture
def pipeline(registry):
    return IngestPipeline(registry)


def signed_votes(registry, round_number, tip, pids):
    return [
        make_vote(registry, registry.secret_key(pid), round_number, tip) for pid in pids
    ]


# ----------------------------------------------------------------------
# Verified-once guarantee
# ----------------------------------------------------------------------
def test_multicast_verified_once_across_receivers(registry, pipeline, genesis):
    batch = tuple(signed_votes(registry, 1, genesis.block_id, range(5)))
    results = [pipeline.batch(batch) for _ in range(10)]  # ten "receivers"
    assert pipeline.stats["crypto_verifications"] == 5
    assert pipeline.stats["batches_built"] == 1
    assert pipeline.stats["batch_memo_hits"] == 9
    assert pipeline.stats["rejected"] == 0
    assert all(r is results[0] for r in results)  # one shared batch object


def test_list_deliveries_reuse_interned_instances(registry, pipeline, genesis):
    messages = signed_votes(registry, 1, genesis.block_id, range(4))
    first = pipeline.batch(tuple(messages))
    # A later list delivery (deployment inbox, backlog catch-up) of the
    # same instances re-verifies nothing.
    again = pipeline.batch(list(messages))
    assert pipeline.stats["crypto_verifications"] == 4
    assert again.votes == first.votes


def test_equal_but_distinct_instances_collapse_to_canonical(registry, pipeline, genesis):
    vote = make_vote(registry, registry.secret_key(0), 1, genesis.block_id)
    clone = VoteMessage(sender=0, round=1, signature=vote.signature, tip=genesis.block_id)
    assert pipeline.batch((vote,)).votes == (vote,)
    batch = pipeline.batch((clone,))
    assert batch.votes[0] is vote  # interned: one object per logical message
    assert pipeline.stats["crypto_verifications"] == 1


def test_invalid_messages_rejected_and_counted(registry, pipeline, genesis):
    good = make_vote(registry, registry.secret_key(0), 1, genesis.block_id)
    forged = VoteMessage(sender=1, round=1, signature=good.signature, tip=genesis.block_id)
    batch = pipeline.batch((good, forged, forged))
    assert batch.votes == (good,)
    assert batch.rejected == 2
    # The False verdict is cached: no re-verification of known junk.
    assert pipeline.stats["crypto_verifications"] == 2


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_batch_classifies_kinds_in_delivery_order(registry, pipeline, genesis):
    key = registry.secret_key(3)
    block = Block(parent=genesis.block_id, proposer=3, view=1)
    vote = make_vote(registry, key, 2, genesis.block_id)
    propose = make_propose(registry, key, 2, view=1, block=block)
    ack = make_ack(registry, key, 2, genesis.block_id)
    batch = pipeline.batch((ack, vote, propose))
    assert batch.messages == (ack, vote, propose)
    assert batch.votes == (vote,)
    assert batch.proposes == (propose,)
    assert batch.acks == (ack,)
    assert list(batch.ack_records()) == [(3, 2, genesis.block_id)]


def test_vote_table_resolves_within_batch_equivocation(registry, pipeline, genesis):
    key = registry.secret_key(1)
    block = Block(parent=genesis.block_id, proposer=0, view=1)
    a = make_vote(registry, key, 4, genesis.block_id)
    b = make_vote(registry, key, 4, block.block_id)
    honest = make_vote(registry, registry.secret_key(2), 4, genesis.block_id)
    table = pipeline.batch((a, b, honest)).vote_table()
    assert table[4][1] is EQUIVOCATED_VOTE
    assert table[4][2] == genesis.block_id


# ----------------------------------------------------------------------
# Cache safety (the transplanted-signature class of attacks)
# ----------------------------------------------------------------------
def test_poisoned_message_id_cannot_inherit_cached_verdict(registry, genesis):
    """A transplanted signature with a poisoned memoised ``message_id``
    must not inherit the victim's cached True verdict — the digest is
    recomputed by the verifier from the claimed sender and content."""
    verifier = IngestPipeline(registry)
    good = make_vote(registry, registry.secret_key(9), 3, genesis.block_id)
    assert verifier.verify(good)
    forged = VoteMessage(sender=0, round=3, signature=good.signature, tip=genesis.block_id)
    object.__setattr__(forged, "_message_id", good.message_id)
    assert forged.message_id == good.message_id  # the lie is in place
    assert not verifier.verify(forged)


def test_poisoned_id_in_batch_path_rejected(registry, pipeline, genesis):
    good = make_vote(registry, registry.secret_key(9), 3, genesis.block_id)
    forged = VoteMessage(sender=0, round=3, signature=good.signature, tip=genesis.block_id)
    object.__setattr__(forged, "_message_id", good.message_id)
    batch = pipeline.batch((good, forged))
    assert batch.votes == (good,)
    assert batch.rejected == 1


# ----------------------------------------------------------------------
# Bounded caches
# ----------------------------------------------------------------------
def test_verification_cache_is_lru_bounded(registry, genesis):
    """Accepted and rejected verdicts share the one table's bound."""
    verifier = IngestPipeline(registry)
    table = verifier._interner = MessageInterner(capacity=4)
    votes = signed_votes(registry, 1, genesis.block_id, range(8))
    forged = [
        VoteMessage(sender=(v.sender + 1) % 8, round=1, signature=v.signature, tip=v.tip)
        for v in votes
    ]
    for vote, junk in zip(votes, forged):
        assert verifier.verify(vote)
        assert not verifier.verify(junk)
    assert len(table) == 4
    assert table.lookup(forged[-1].content_key) is REJECTED
    assert table.lookup(votes[-1].content_key) is votes[-1]
    assert table.lookup(votes[0].content_key) is None
    # An evicted rejection is merely checked again, to the same verdict.
    assert not verifier.verify(forged[0])
    assert verifier.stats["crypto_verifications"] == 17


def test_batch_memo_eviction_keeps_identity_keys_sound(registry, genesis):
    pipeline = IngestPipeline(registry, batch_memo_capacity=2)
    batches = [
        tuple(signed_votes(registry, r, genesis.block_id, range(3))) for r in range(5)
    ]
    outputs = [pipeline.batch(b) for b in batches]
    # Oldest entries evicted; re-presenting an evicted tuple rebuilds
    # (cheaply, via interner hits) rather than returning a stale batch.
    rebuilt = pipeline.batch(batches[0])
    assert rebuilt.votes == outputs[0].votes
    assert pipeline.stats["crypto_verifications"] == 15  # never re-verified


def test_interner_is_lru_bounded_and_eviction_is_sound(registry, genesis):
    """A Byzantine flood of distinct valid messages cannot grow the
    canonical table without bound, and an evicted instance loses its
    identity fast path (no stale-id false positives) but stays valid."""
    interner = MessageInterner(capacity=3)
    pipeline = IngestPipeline(registry)
    pipeline._interner = interner
    votes = signed_votes(registry, 1, genesis.block_id, range(6))
    for vote in votes:
        assert pipeline.verify(vote)
    assert len(interner) == 3
    evicted = votes[0]
    assert not interner.is_canonical(evicted)
    # Re-presenting the evicted message verifies it again (its verdict
    # left with it) and re-interns it.
    crypto_before = pipeline.stats["crypto_verifications"]
    assert pipeline.verify(evicted)
    assert pipeline.stats["crypto_verifications"] == crypto_before + 1
    assert interner.is_canonical(evicted)


def test_registry_verify_batch_matches_single_verify(registry, genesis):
    key = registry.secret_key(5)
    vote = make_vote(registry, key, 2, genesis.block_id)
    items = [
        (vote.sender, vote.signature, vote._signed_fields()),
        (6, vote.signature, vote._signed_fields()),  # wrong claimed signer
        (9999, vote.signature, vote._signed_fields()),  # unregistered
    ]
    assert registry.verify_batch(items) == [True, False, False]
