"""Checkers must detect planted violations and pass clean traces."""

from repro.analysis.checkers import (
    check_asynchrony_resilience,
    check_healing,
    check_safety,
    check_transaction_liveness,
)
from repro.chain.block import Block, genesis_block
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace

from tests.conftest import extend


def trace_with_rounds(n=4, rounds=12, honest=None) -> Trace:
    tree = BlockTree([genesis_block()])
    trace = Trace(n=n, tree=tree)
    honest = honest if honest is not None else frozenset(range(n))
    for r in range(rounds):
        trace.rounds.append(
            RoundRecord(
                round=r,
                awake=honest,
                byzantine=frozenset(),
                asynchronous=False,
                votes_sent=0,
                proposes_sent=0,
                other_sent=0,
            )
        )
    return trace


def test_safety_passes_on_compatible_decisions():
    trace = trace_with_rounds()
    chain = extend(trace.tree, genesis_block().block_id, 3)
    trace.decisions = [
        DecisionEvent(pid=0, round=3, view=1, tip=chain[0].block_id),
        DecisionEvent(pid=1, round=5, view=2, tip=chain[1].block_id),
        DecisionEvent(pid=0, round=7, view=3, tip=chain[2].block_id),
    ]
    report = check_safety(trace)
    assert report.ok and report.conflicts == []
    assert report.decisions_checked == 3


def test_safety_detects_forks():
    trace = trace_with_rounds()
    left = extend(trace.tree, genesis_block().block_id, 1, salt=1)
    right = extend(trace.tree, genesis_block().block_id, 1, salt=2)
    trace.decisions = [
        DecisionEvent(pid=0, round=3, view=1, tip=left[0].block_id),
        DecisionEvent(pid=1, round=3, view=1, tip=right[0].block_id),
    ]
    report = check_safety(trace)
    assert not report.ok
    assert len(report.conflicts) == 1


def test_safety_on_empty_trace():
    assert check_safety(trace_with_rounds()).ok


def test_resilience_ignores_unrelated_decisions():
    trace = trace_with_rounds()
    chain = extend(trace.tree, genesis_block().block_id, 4)
    trace.decisions = [
        DecisionEvent(pid=0, round=3, view=1, tip=chain[0].block_id),
        DecisionEvent(pid=1, round=7, view=3, tip=chain[2].block_id),
    ]
    assert check_asynchrony_resilience(trace, ra=4, pi=2).ok


def test_resilience_detects_conflicts_with_pre_async_decisions():
    trace = trace_with_rounds()
    chain = extend(trace.tree, genesis_block().block_id, 2, salt=1)
    fork = extend(trace.tree, genesis_block().block_id, 1, salt=2)
    trace.decisions = [
        DecisionEvent(pid=0, round=3, view=1, tip=chain[1].block_id),  # pre-async
        DecisionEvent(pid=1, round=6, view=2, tip=fork[0].block_id),  # in-window, pid 1 ∈ H_ra
    ]
    report = check_asynchrony_resilience(trace, ra=4, pi=2)
    assert not report.ok
    assert report.pre_async_tips == {chain[1].block_id}


def test_resilience_window_exempts_processes_outside_h_ra():
    # pid 3 was not honest-awake at ra: its in-window decision is exempt,
    # but the same decision after the window is a violation.
    trace = trace_with_rounds(honest=frozenset({0, 1, 2}))
    chain = extend(trace.tree, genesis_block().block_id, 2, salt=1)
    fork = extend(trace.tree, genesis_block().block_id, 1, salt=2)
    pre = DecisionEvent(pid=0, round=3, view=1, tip=chain[1].block_id)
    in_window = DecisionEvent(pid=3, round=6, view=2, tip=fork[0].block_id)
    trace.decisions = [pre, in_window]
    assert check_asynchrony_resilience(trace, ra=4, pi=2).ok

    after_window = DecisionEvent(pid=3, round=8, view=3, tip=fork[0].block_id)
    trace.decisions = [pre, after_window]
    assert not check_asynchrony_resilience(trace, ra=4, pi=2).ok


def test_healing_requires_post_window_decisions():
    trace = trace_with_rounds(rounds=20)
    chain = extend(trace.tree, genesis_block().block_id, 2)
    trace.decisions = [DecisionEvent(pid=0, round=3, view=1, tip=chain[0].block_id)]
    report = check_healing(trace, last_async_round=8, k=1)
    assert not report.ok and not report.liveness_ok and report.safety_ok

    trace.decisions.append(DecisionEvent(pid=0, round=11, view=5, tip=chain[1].block_id))
    report = check_healing(trace, last_async_round=8, k=1)
    assert report.ok
    assert report.rounds_to_decision == 2


def test_healing_detects_post_window_forks():
    trace = trace_with_rounds(rounds=20)
    left = extend(trace.tree, genesis_block().block_id, 1, salt=1)
    right = extend(trace.tree, genesis_block().block_id, 1, salt=2)
    trace.decisions = [
        DecisionEvent(pid=0, round=11, view=5, tip=left[0].block_id),
        DecisionEvent(pid=1, round=13, view=6, tip=right[0].block_id),
    ]
    report = check_healing(trace, last_async_round=8, k=1)
    assert not report.ok and not report.safety_ok


def test_transaction_liveness():
    trace = trace_with_rounds()
    tx = Transaction.create(0, 0)
    with_tx = Block(parent=genesis_block().block_id, proposer=0, view=1, payload=(tx,))
    trace.tree.add(with_tx)
    later = Block(parent=with_tx.block_id, proposer=0, view=2)
    trace.tree.add(later)

    trace.decisions = [DecisionEvent(pid=0, round=3, view=1, tip=with_tx.block_id)]
    report = check_transaction_liveness(trace, tx.tx_id)
    assert report.ok and report.included_round == 3

    assert not check_transaction_liveness(trace, "deadbeef").ok

    # A process whose last delivery after inclusion misses the tx is a laggard.
    fork = Block(parent=genesis_block().block_id, proposer=1, view=1, salt=9)
    trace.tree.add(fork)
    trace.decisions.append(DecisionEvent(pid=1, round=5, view=2, tip=fork.block_id))
    report = check_transaction_liveness(trace, tx.tx_id)
    assert not report.ok and report.laggards == {1}
