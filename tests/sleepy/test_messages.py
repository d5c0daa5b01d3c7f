"""Signed messages: identity, verification, adversarial tampering."""

from repro.chain.block import Block, genesis_block
from repro.engine.ingest import IngestPipeline
from repro.sleepy.messages import (
    ProposeMessage,
    VoteMessage,
    make_propose,
    make_vote,
    verify_message,
)


def test_vote_roundtrip(registry, genesis):
    key = registry.secret_key(2)
    vote = make_vote(registry, key, 5, genesis.block_id)
    assert vote.sender == 2
    assert vote.round == 5
    assert vote.tip == genesis.block_id
    assert verify_message(registry, vote)


def test_vote_for_empty_log(registry):
    vote = make_vote(registry, registry.secret_key(0), 1, None)
    assert vote.tip is None
    assert verify_message(registry, vote)


def test_tampered_vote_rejected(registry, genesis):
    key = registry.secret_key(2)
    vote = make_vote(registry, key, 5, genesis.block_id)
    other = Block(parent=genesis.block_id, proposer=9, view=1)
    tampered = VoteMessage(sender=2, round=5, signature=vote.signature, tip=other.block_id)
    assert not verify_message(registry, tampered)
    resender = VoteMessage(sender=3, round=5, signature=vote.signature, tip=vote.tip)
    assert not verify_message(registry, resender)
    replayed = VoteMessage(sender=2, round=6, signature=vote.signature, tip=vote.tip)
    assert not verify_message(registry, replayed)


def test_propose_roundtrip(registry, genesis):
    key = registry.secret_key(4)
    block = Block(parent=genesis.block_id, proposer=4, view=3)
    propose = make_propose(registry, key, 4, view=3, block=block)
    assert propose.tip == block.block_id
    assert verify_message(registry, propose)


def test_propose_with_wrong_vrf_rejected(registry, genesis):
    key4, key5 = registry.secret_key(4), registry.secret_key(5)
    block = Block(parent=genesis.block_id, proposer=4, view=3)
    honest = make_propose(registry, key4, 4, view=3, block=block)
    stolen = make_propose(registry, key5, 4, view=3, block=block)
    # Graft pid 5's (valid) VRF onto pid 4's proposal: signature breaks.
    grafted = ProposeMessage(
        sender=4,
        round=4,
        signature=honest.signature,
        view=3,
        block=block,
        vrf=stolen.vrf,
    )
    assert not verify_message(registry, grafted)


def test_propose_requires_block_and_vrf(registry):
    bogus = ProposeMessage(sender=0, round=0, signature="00", view=1, block=None, vrf=None)
    assert not verify_message(registry, bogus)


def test_message_ids_unique(registry, genesis):
    key = registry.secret_key(1)
    a = make_vote(registry, key, 1, genesis.block_id)
    b = make_vote(registry, key, 2, genesis.block_id)
    c = make_vote(registry, key, 1, None)
    assert len({a.content_key, b.content_key, c.content_key}) == 3
    assert a.content_key == make_vote(registry, key, 1, genesis.block_id).content_key


def test_cached_verifier_matches_uncached(registry, genesis):
    verifier = IngestPipeline(registry)
    vote = make_vote(registry, registry.secret_key(0), 1, genesis.block_id)
    bad = VoteMessage(sender=1, round=1, signature=vote.signature, tip=vote.tip)
    for _ in range(2):  # second pass exercises the memo
        assert verifier.verify(vote) is verify_message(registry, vote) is True
        assert verifier.verify(bad) is verify_message(registry, bad) is False


def test_transplanted_signature_rejected_after_the_victim_is_cached(registry, genesis):
    """Regression: a message whose ``sender`` does not match the key
    that produced its (otherwise valid) signature must be rejected even
    once the victim's True verdict is cached — the verifier keys its
    table by the message's content, which includes the claimed sender."""
    verifier = IngestPipeline(registry)
    victim = make_vote(registry, registry.secret_key(9), 3, genesis.block_id)
    assert verifier.verify(victim)  # the True verdict is now cached
    transplant = VoteMessage(
        sender=0, round=3, signature=victim.signature, tip=genesis.block_id
    )
    assert transplant.content_key != victim.content_key
    assert not verifier.verify(transplant)
    # And the batch path agrees.
    batch = verifier.batch([victim, transplant])
    assert batch.votes == (victim,)
    assert batch.rejected == 1


def test_batch_matches_single_message_verification(registry, genesis):
    verifier = IngestPipeline(registry)
    key = registry.secret_key(4)
    block = Block(parent=genesis.block_id, proposer=4, view=1)
    good_vote = make_vote(registry, key, 2, genesis.block_id)
    good_propose = make_propose(registry, key, 2, view=1, block=block)
    bad = VoteMessage(sender=5, round=2, signature=good_vote.signature, tip=genesis.block_id)
    batch = verifier.batch([good_vote, bad, good_propose])
    assert batch.messages == (good_vote, good_propose)
    assert batch.votes == (good_vote,)
    assert batch.proposes == (good_propose,)
    assert batch.rejected == 1


def test_genesis_propose_verifies(registry):
    # View-0 behaviour of Algorithm 1: propose [b0] with VRF(1).
    propose = make_propose(registry, registry.secret_key(0), 0, view=1, block=genesis_block())
    assert verify_message(registry, propose)
