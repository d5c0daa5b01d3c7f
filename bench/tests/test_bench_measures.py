"""Percentile rule, tx-lifecycle extraction, failure accounting, summaries."""

import pytest

import measures
from repro.chain.block import Block, genesis_block
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree
from repro.sleepy.trace import DecisionEvent, Trace


def test_percentile_of_a_point_mass_is_centred_on_it():
    assert measures.percentile_rounds([4] * 100, 50) == pytest.approx(4.0)
    assert measures.percentile_rounds([4] * 100, 95) == pytest.approx(4.45)


def test_percentile_moves_smoothly_when_a_tenth_slips_one_round():
    before = measures.percentile_rounds([4] * 100, 95)
    after = measures.percentile_rounds([4] * 90 + [5] * 10, 95)
    # 95 of 100: the 5 past the ninety 4s sit halfway into the ten 5s.
    assert after == pytest.approx(5.0)
    assert before < after < 5.5


def test_percentile_reads_the_boundary_between_two_equal_masses():
    # Nearest rank would flip between 3 and 4 on one sample more or less.
    assert measures.percentile_rounds([3] * 50 + [4] * 50, 50) == pytest.approx(3.5)
    assert measures.percentile_rounds([3] * 49 + [4] * 51, 50) == pytest.approx(3.5 + 1 / 51)


def test_percentile_rejects_empty_input_and_bad_q():
    with pytest.raises(ValueError):
        measures.percentile_rounds([], 50)
    with pytest.raises(ValueError):
        measures.percentile_rounds([1], 100)


def _hand_built_trace():
    """genesis ← a(view 2: t0,t1) ← b(view 3: t2); a fork c(view 3: t1 again)."""
    txs = [Transaction.create(sender=1, nonce=i, payload=b"x") for i in range(4)]
    genesis = genesis_block()
    a = Block(parent=genesis.block_id, proposer=0, view=2, payload=(txs[0], txs[1]))
    b = Block(parent=a.block_id, proposer=1, view=3, payload=(txs[2],))
    c = Block(parent=genesis.block_id, proposer=1, view=3, payload=(txs[1],))
    tree = BlockTree([genesis, a, b, c])
    trace = Trace(n=2, tree=tree)
    trace.decisions += [
        DecisionEvent(pid=0, round=5, view=2, tip=a.block_id),
        DecisionEvent(pid=1, round=6, view=2, tip=a.block_id),
        DecisionEvent(pid=0, round=7, view=3, tip=b.block_id),
    ]
    return trace, txs


def test_lifecycle_takes_first_proposal_and_first_decision():
    trace, txs = _hand_built_trace()
    arrivals = {txs[0].tx_id: 1, txs[1].tx_id: 2, txs[2].tx_id: 3, txs[3].tx_id: 3}
    lives = measures.tx_lifecycles(trace, arrivals)
    # View-2 blocks go out at round 2, view-3 blocks at round 4.
    assert lives[txs[0].tx_id] == measures.Lifecycle(arrival=1, proposed=2, decided=5)
    # t1 is also in the fork's view-3 block; the earlier proposal counts.
    assert lives[txs[1].tx_id] == measures.Lifecycle(arrival=2, proposed=2, decided=5)
    assert lives[txs[2].tx_id] == measures.Lifecycle(arrival=3, proposed=4, decided=7)
    assert lives[txs[3].tx_id] == measures.Lifecycle(arrival=3, proposed=None, decided=None)


def test_log_faults_names_unsubmitted_transactions():
    trace, txs = _hand_built_trace()
    everything = {tx.tx_id: 0 for tx in txs}
    assert measures.log_faults(trace, everything) == []
    without_t2 = {tx.tx_id: 0 for tx in txs if tx is not txs[2]}
    assert len(measures.log_faults(trace, without_t2)) == 1


def test_gap_and_undecided_views():
    trace, _ = _hand_built_trace()
    assert measures.decision_gap_max(trace) == 1
    # 12 rounds can decide views 1..5; the trace decided 2 and 3.
    assert measures.views_without_decision(trace, 12) == [1, 4, 5]


def test_accounting_applies_the_eight_round_cutoff():
    lives = {
        "early": measures.Lifecycle(arrival=10, proposed=10, decided=13),
        "edge": measures.Lifecycle(arrival=12, proposed=12, decided=16),
        "late": measures.Lifecycle(arrival=13, proposed=None, decided=None),
        "lost": measures.Lifecycle(arrival=3, proposed=None, decided=None),
    }
    attempted, failed, latencies = measures.account(lives, rounds=20, checks_ok=True)
    # Due at or before round 20 − 8 counts; "late" is neither attempted nor failed.
    assert (attempted, failed) == (3, 1)
    assert sorted(latencies) == [3, 4]


def test_a_failed_check_fails_every_attempted_transaction():
    lives = {"a": measures.Lifecycle(arrival=1, proposed=2, decided=5)}
    assert measures.account(lives, rounds=20, checks_ok=False)[:2] == (1, 1)


def test_summary_uses_statistics_quantiles():
    summary = measures.summarise([1.0, 2.0, 3.0, 4.0, 10.0])
    assert summary["n"] == 5 and summary["median"] == 3.0 and summary["min"] == 1.0
    assert (summary["q1"], summary["q3"]) == (1.5, 7.0)
    assert measures.spread(summary) == pytest.approx(5.5 / 3.0)
