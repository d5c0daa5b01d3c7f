"""Adversary context permissions, and each strategy through the script interpreter."""

import pytest

from repro.attacks import (
    AttackScript,
    ScriptedAdversary,
    apply_script,
    corrupt,
    equivocate,
    get_script,
    phase,
    split_vote,
    vote_for,
    withhold,
)
from repro.chain.block import genesis_block
from repro.chain.tree import BlockTree
from repro.engine.spec import RunSpec
from repro.sleepy.adversary import AdversaryContext, NullAdversary
from repro.sleepy.messages import ProposeMessage, VoteMessage, verify_message


def scripted(*phases):
    return ScriptedAdversary(AttackScript(name="t", phases=tuple(phases)))


@pytest.fixture
def ctx(registry):
    context = AdversaryContext(registry, BlockTree([genesis_block()]))
    context.grant_key(0)
    context.grant_key(1)
    return context


def test_context_denies_honest_keys(ctx):
    with pytest.raises(PermissionError):
        ctx.key_of(5)


def test_crafted_messages_verify(ctx, registry):
    vote = ctx.craft_vote(0, 3, None)
    assert verify_message(registry, vote)
    block = ctx.craft_block(1, view=2, parent=genesis_block().block_id)
    propose = ctx.craft_propose(1, 3, 2, block)
    assert verify_message(registry, propose)
    assert block.block_id in ctx.tree


def test_deepest_tip_tracks_tree(ctx):
    assert ctx.deepest_tip() == genesis_block().block_id
    block = ctx.craft_block(0, view=1, parent=genesis_block().block_id)
    assert ctx.deepest_tip() == block.block_id


def test_null_and_crash_adversaries(ctx):
    assert NullAdversary().byzantine(5) == frozenset()
    crash = ScriptedAdversary(get_script("crash", 4, byz=[1, 2], from_round=3))
    assert crash.byzantine(2) == frozenset()
    assert crash.byzantine(3) == frozenset({1, 2})
    assert crash.send(3, ctx) == ()


def test_static_vote_adversary_votes_every_round(ctx):
    adversary = scripted(phase(8, corrupt(0, 1), vote_for("deepest")))
    messages = adversary.send(4, ctx)
    assert len(messages) == 2
    assert all(isinstance(m, VoteMessage) and m.round == 4 for m in messages)
    assert {m.sender for m in messages} == {0, 1}
    assert {m.tip for m in messages} == {ctx.deepest_tip()}


def test_stale_votes_pin_one_tip_for_the_rest_of_the_run(ctx):
    adversary = ScriptedAdversary(get_script("stale-votes", 4, byz=[0, 1], from_round=2, rounds=8))
    assert {m.tip for m in adversary.send(1, ctx)} == {None}  # the empty log, before
    pinned = ctx.craft_block(0, view=1, parent=genesis_block().block_id).block_id
    assert {m.tip for m in adversary.send(2, ctx)} == {pinned}
    ctx.craft_block(1, view=2, parent=pinned)  # the chain moves on; the vote does not
    assert {m.tip for m in adversary.send(3, ctx)} == {pinned}


def test_equivocating_adversary_sends_two_conflicting_votes(ctx):
    adversary = scripted(phase(8, corrupt(0, 1), equivocate()))
    messages = adversary.send(2, ctx)
    votes = [m for m in messages if isinstance(m, VoteMessage)]
    proposes = [m for m in messages if isinstance(m, ProposeMessage)]
    assert len(votes) == 4 and len(proposes) == 4
    by_sender = {}
    for vote in votes:
        by_sender.setdefault(vote.sender, set()).add(vote.tip)
    for tips in by_sender.values():
        assert len(tips) == 2
        a, b = tips
        assert ctx.tree.conflict(a, b)


def test_withholding_adversary_blacks_out(ctx):
    adversary = scripted(phase(3), phase(2, withhold()))
    vote = ctx.craft_vote(0, 2, None)
    assert adversary.deliver(2, 0, [vote], ctx) == [vote]  # before the blackout
    assert adversary.deliver(3, 0, [vote], ctx) == []
    assert adversary.deliver(5, 0, [vote], ctx) == [vote]  # the implicit heal


def test_split_vote_attack_requires_decision_round():
    spec = RunSpec(n=4, rounds=8)
    for warm_up, rounds in ((3, 1), (4, 2)):  # an odd round; two rounds
        script = AttackScript("t", (phase(warm_up), phase(rounds, split_vote((0,), (1,)))))
        with pytest.raises(ValueError, match="split_vote owns one decision round"):
            apply_script(spec, script)
    with pytest.raises(ValueError, match="first phase"):  # round 0
        AttackScript("t", (phase(1, split_vote((0,), (1,))),))


def test_split_vote_attack_partitions_delivery(ctx):
    adversary = scripted(phase(4, corrupt(0, 1)), phase(1, split_vote((2,), (3,))), phase(4))
    assert adversary.send(2, ctx) == ()  # silent outside the attack round
    parent = ctx.deepest_tip()
    assert adversary.send(3, ctx) == ()  # ... where it notes the tip to fork
    ctx.craft_block(0, view=9, parent=parent)  # a block the victims will not hold yet
    messages = list(adversary.send(4, ctx))
    votes = [m for m in messages if isinstance(m, VoteMessage)]
    tips = {v.tip for v in votes}
    assert len(tips) == 2
    assert {ctx.tree.get(tip).parent for tip in tips} == {parent}

    group0 = adversary.deliver(4, receiver=2, deliverable=messages, ctx=ctx)
    group1 = adversary.deliver(4, receiver=3, deliverable=messages, ctx=ctx)
    tips0 = {m.tip for m in group0 if isinstance(m, VoteMessage)}
    tips1 = {m.tip for m in group1 if isinstance(m, VoteMessage)}
    assert len(tips0) == 1 and len(tips1) == 1
    assert tips0 != tips1
    # Each group also gets the propose carrying its block.
    assert any(isinstance(m, ProposeMessage) for m in group0)
    # A receiver on neither side gets nothing that round.
    assert adversary.deliver(4, receiver=1, deliverable=messages, ctx=ctx) == ()
    # Outside the attack round delivery is unrestricted.
    assert adversary.deliver(6, receiver=2, deliverable=messages, ctx=ctx) == messages
