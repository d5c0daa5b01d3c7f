"""The Algorithm 1 state machine: message cadence, decisions, proposals."""

from fractions import Fraction

import pytest

from repro.chain.block import Block, genesis_block
from repro.chain.transactions import Transaction
from repro.harness import TOBRunConfig, build_simulation, run_tob
from repro.sleepy.messages import ProposeMessage, VoteMessage


def test_view_zero_sends_genesis_proposal():
    sim = build_simulation(TOBRunConfig(n=3, rounds=1, protocol="mmr"))
    process = sim.processes[0]
    messages = process.send(0)
    assert len(messages) == 1
    (propose,) = messages
    assert isinstance(propose, ProposeMessage)
    assert propose.view == 1
    assert propose.block == genesis_block()


def test_round_one_sends_single_vote():
    sim = build_simulation(TOBRunConfig(n=3, rounds=4, protocol="mmr"))
    sim.run(1)  # round 0 completes with its receive phase
    messages = sim.processes[0].send(1)
    assert len(messages) == 1
    assert isinstance(messages[0], VoteMessage)
    # Everyone proposed [b0] for view 1, so the vote is for [b0].
    assert messages[0].tip == genesis_block().block_id


def test_round_two_sends_vote_and_proposal():
    sim = build_simulation(TOBRunConfig(n=3, rounds=4, protocol="mmr"))
    sim.run(2)  # rounds 0-1 complete
    messages = sim.processes[0].send(2)
    kinds = sorted(type(m).__name__ for m in messages)
    assert kinds == ["ProposeMessage", "VoteMessage"]
    propose = next(m for m in messages if isinstance(m, ProposeMessage))
    assert propose.view == 2
    # The view-2 proposal extends C_1 = [b0].
    assert propose.block.parent == genesis_block().block_id


def test_decisions_happen_at_view_boundaries():
    trace = run_tob(TOBRunConfig(n=4, rounds=12, protocol="mmr"))
    assert trace.decisions, "synchronous fault-free run must decide"
    assert all(d.round % 2 == 1 for d in trace.decisions)
    # First possible decision: round 3 (outputs of GA_{1,2}).
    assert min(d.round for d in trace.decisions) == 3
    # Every process decides at every view boundary from round 3 on.
    deciders_at_3 = {d.pid for d in trace.decisions if d.round == 3}
    assert deciders_at_3 == set(range(4))


def test_chain_grows_one_block_per_view():
    trace = run_tob(TOBRunConfig(n=4, rounds=20, protocol="mmr"))
    final_tip = max((d.tip for d in trace.decisions), key=trace.tree.depth)
    # Round 2v−1 decides the view-(v−1) proposal, whose log holds the
    # genesis block plus one block per view 1..v−2 — depth v−1.  The
    # last decision round in 20 rounds is r=19 (v=10): depth 9.
    assert trace.tree.depth(final_tip) == 9


def test_delivered_logs_extend_monotonically():
    sim = build_simulation(TOBRunConfig(n=4, rounds=16, protocol="mmr"))
    previous_tips: dict[int, object] = {}
    for _ in range(16):
        sim.run(1)
        for pid, process in sim.processes.items():
            tip = process.delivered_tip
            if pid in previous_tips:
                assert sim.trace.tree.is_prefix(previous_tips[pid], tip)
            previous_tips[pid] = tip


def test_transactions_flow_into_decided_blocks():
    txs = [Transaction.create(9, nonce) for nonce in range(3)]
    trace = run_tob(
        TOBRunConfig(n=4, rounds=14, protocol="mmr", transactions={4: txs})
    )
    deepest = max((d.tip for d in trace.decisions), key=trace.tree.depth)
    included = trace.tree.payload_ids(deepest)
    for tx in txs:
        assert tx.tx_id in included


def test_transactions_not_duplicated_across_blocks():
    txs = [Transaction.create(9, nonce) for nonce in range(3)]
    trace = run_tob(
        TOBRunConfig(n=4, rounds=20, protocol="mmr", transactions={4: txs})
    )
    deepest = max((d.tip for d in trace.decisions), key=trace.tree.depth)
    all_txs = [
        tx.tx_id for block_id in trace.tree.path(deepest) for tx in trace.tree.get(block_id).payload
    ]
    assert len(all_txs) == len(set(all_txs))


def _sim_with_delivered_transactions():
    txs = [Transaction.create(9, nonce) for nonce in range(3)]
    sim = build_simulation(TOBRunConfig(n=4, rounds=40, protocol="mmr"))
    for each in sim.processes.values():
        for tx in txs:
            each.mempool.add(tx)
    sim.run(14)
    process = sim.processes[0]
    assert {tx.tx_id for tx in txs} <= process.tree.payload_ids(process.delivered_tip)
    return sim, process, txs


def test_transaction_reoffered_after_delivery_is_never_proposed_again():
    sim, process, txs = _sim_with_delivered_transactions()
    assert len(process.mempool) == 0
    assert process.mempool.add(txs[0])  # a client retries a delivered transaction
    decisions_before = len(sim.trace.decisions_by(process.pid))
    known = {block.block_id for block in sim.trace.tree.blocks()}
    sim.run(6)
    fresh = [block for block in sim.trace.tree.blocks() if block.block_id not in known]
    assert any(block.proposer == process.pid for block in fresh)
    assert all(txs[0] not in block.payload for block in fresh)
    # ... and the next decision sweeps it out of the pool.
    assert len(sim.trace.decisions_by(process.pid)) > decisions_before
    assert txs[0].tx_id not in process.mempool.pending_ids()


def _fork_off_genesis(process, payload):
    fork = Block(
        parent=genesis_block().block_id, proposer=3, view=1, payload=payload, salt=1
    )
    process.tree.add(fork)
    assert process.tree.conflict(fork.block_id, process.delivered_tip)
    return fork


def test_block_on_a_parent_off_the_delivered_log_excludes_that_parents_path():
    _sim, process, _txs = _sim_with_delivered_transactions()
    on_fork, elsewhere = Transaction.create(8, 0), Transaction.create(8, 1)
    fork = _fork_off_genesis(process, (on_fork,))
    process.mempool.add(on_fork)
    process.mempool.add(elsewhere)
    block = process._make_block(parent=fork.block_id, view=99)
    assert block.payload == (elsewhere,)


def test_conflicting_decision_rebuilds_the_delivered_set():
    _sim, process, txs = _sim_with_delivered_transactions()
    process.pop_decisions()
    on_fork = Transaction.create(8, 0)
    fork = _fork_off_genesis(process, (on_fork,))
    process.mempool.add(on_fork)
    process.mempool.add(txs[0])
    process._decide(fork.block_id, round_number=15, view=7)
    # Recorded faithfully, and membership now describes the new log only.
    assert [event.tip for event in process.pop_decisions()] == [fork.block_id]
    assert process.delivered_tip == fork.block_id
    assert process._delivered_ids == process.tree.payload_ids(fork.block_id) == {on_fork.tx_id}
    assert process.mempool.pending_ids() == {txs[0].tx_id}
    # The old branch's transaction is proposable again on the new log.
    assert process._make_block(parent=fork.block_id, view=99).payload == (txs[0],)


def test_decision_events_deduplicate_prefix_redeliveries():
    trace = run_tob(TOBRunConfig(n=4, rounds=16, protocol="mmr"))
    for pid in range(4):
        tips = [d.tip for d in trace.decisions_by(pid)]
        assert len(tips) == len(set(tips))
        depths = [trace.tree.depth(t) for t in tips]
        assert depths == sorted(depths)


def test_beta_parameter_flows_through():
    trace = run_tob(TOBRunConfig(n=8, rounds=12, protocol="mmr", beta=Fraction(1, 4)))
    assert trace.decisions  # fault-free: stricter quorum still decides
    assert trace.meta["beta"] == Fraction(1, 4)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        build_simulation(TOBRunConfig(n=2, rounds=1, protocol="pbft"))
