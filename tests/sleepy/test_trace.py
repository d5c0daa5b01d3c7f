"""Trace accessors, and the one recorder every trace is built by."""

import pickle

import pytest

from repro.chain.block import Block, genesis_block
from repro.chain.store import BlockBuffer
from repro.chain.tree import BlockTree
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.sleepy.messages import make_propose, make_vote
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace, TraceRecorder

from tests.conftest import extend


def make_trace() -> Trace:
    tree = BlockTree([genesis_block()])
    trace = Trace(n=4, tree=tree)
    honest_sets = [frozenset({0, 1, 2}), frozenset({0, 1}), frozenset({1, 2, 3})]
    for r, honest in enumerate(honest_sets):
        trace.rounds.append(
            RoundRecord(
                round=r,
                awake=honest | {3},
                byzantine=frozenset({3}) - honest,
                asynchronous=False,
                votes_sent=0,
                proposes_sent=0,
                other_sent=0,
            )
        )
    return trace


def test_unions_follow_paper_notation():
    trace = make_trace()
    assert trace.honest_union(0, 1) == {0, 1, 2}
    assert trace.honest_union(1, 2) == {0, 1, 2, 3}
    # Below-zero rounds contribute the empty set.
    assert trace.honest_union(-5, 0) == {0, 1, 2}
    assert trace.awake_union(0, 0) == {0, 1, 2, 3}


def test_record_access_and_horizon():
    trace = make_trace()
    assert trace.horizon == 3
    assert trace.record(1).honest == {0, 1}
    with pytest.raises(IndexError):
        trace.record(10)


def test_decision_queries():
    trace = make_trace()
    chain = extend(trace.tree, genesis_block().block_id, 3)
    trace.decisions.extend(
        [
            DecisionEvent(pid=0, round=0, view=0, tip=chain[0].block_id),
            DecisionEvent(pid=1, round=1, view=1, tip=chain[1].block_id),
            DecisionEvent(pid=0, round=2, view=1, tip=chain[2].block_id),
        ]
    )
    assert trace.decided_tips_up_to(0) == {chain[0].block_id}
    assert trace.decided_tips_up_to(2) == {c.block_id for c in chain}
    assert trace.decisions_by(0) == [trace.decisions[0], trace.decisions[2]]
    assert trace.delivered_tip(0, 1) == chain[0].block_id
    assert trace.delivered_tip(0, 2) == chain[2].block_id
    assert trace.delivered_tip(3, 2) is None
    assert trace.deciders() == {0, 1}
    assert trace.last_decision_round() == 2


def test_empty_trace_defaults():
    trace = Trace(n=2)
    assert trace.horizon == 0
    assert trace.last_decision_round() is None
    assert trace.decided_tips_up_to(10) == frozenset()


def _proposal(registry, pid, round_number, parent, salt=0):
    block = Block(parent=parent, proposer=pid, view=1, salt=salt)
    return make_propose(registry, registry.secret_key(pid), round_number, 1, block)


def test_recorder_counts_each_kind_into_its_round_and_closes_rounds(registry, genesis):
    recorder = TraceRecorder(4)
    proposal = _proposal(registry, 0, 0, genesis.block_id)
    recorder.published(0, proposal)
    recorder.published(0, make_vote(registry, registry.secret_key(1), 0, genesis.block_id))
    recorder.published(1, make_vote(registry, registry.secret_key(2), 1, genesis.block_id))
    recorder.close_round(0, frozenset({0, 1}), frozenset({3}), asynchronous=False)
    recorder.close_round(1, frozenset({2}), frozenset({3}), asynchronous=True)
    recorder.close_round(2, frozenset(), frozenset(), asynchronous=False)
    first, second, quiet = recorder.trace.rounds
    # Byzantine processes never sleep: O_r is the schedule's set plus B_r.
    assert (first.awake, first.honest, first.byzantine) == ({0, 1, 3}, {0, 1}, {3})
    assert (first.votes_sent, first.proposes_sent, first.other_sent) == (1, 1, 0)
    assert (second.votes_sent, second.asynchronous) == (1, True)
    assert (quiet.votes_sent, quiet.proposes_sent, quiet.other_sent) == (0, 0, 0)
    assert proposal.block.block_id in recorder.trace.tree


def test_recorder_adopts_the_tree_it_is_given(tree):
    assert TraceRecorder(2, tree=tree).trace.tree is tree


def test_folding_shipments_offers_each_block_once_and_sums_counts(
    registry, genesis, monkeypatch
):
    parent = _proposal(registry, 0, 0, genesis.block_id)
    child = _proposal(registry, 1, 1, parent.block.block_id)
    # Shard A published only the child: an orphan there, kept.  Shard B
    # published the parent, and the child's block again.
    shard_a, shard_b = TraceRecorder(2), TraceRecorder(2)
    shard_a.published(1, child)
    shard_b.published(0, parent)
    shard_b.published(1, child)
    shard_a.decided([DecisionEvent(pid=1, round=1, view=1, tip=child.block.block_id)])
    assert child.block.block_id not in shard_a.trace.tree

    offers = []
    offer = BlockBuffer.offer

    def counting_offer(self, block, source=None):
        offers.append(block.block_id)
        return offer(self, block, source)

    merged = TraceRecorder(2)
    monkeypatch.setattr(BlockBuffer, "offer", counting_offer)
    for shard in (shard_a, shard_b):
        merged.fold(pickle.loads(pickle.dumps(shard.shipment())))
    assert offers == [child.block.block_id, parent.block.block_id]
    assert child.block.block_id in merged.trace.tree
    for r in (0, 1):
        merged.close_round(r, frozenset({0, 1}), frozenset(), asynchronous=False)
    assert [rec.proposes_sent for rec in merged.trace.rounds] == [1, 2]
    assert [d.pid for d in merged.trace.decisions] == [1]


def test_full_participation_shares_one_set_across_round_records():
    trace = run_spec(RunSpec(n=5, rounds=6, protocol="mmr")).trace
    assert len(trace.rounds) == 6
    shared = {id(record.awake) for record in trace.rounds}
    shared |= {id(record.honest) for record in trace.rounds}
    assert len(shared) == 1
    assert trace.rounds[0].honest == frozenset(range(5))
