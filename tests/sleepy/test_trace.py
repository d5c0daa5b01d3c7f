"""Trace accessors: participation unions and decision queries."""

import pytest

from repro.chain.block import genesis_block
from repro.chain.tree import BlockTree
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace

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
