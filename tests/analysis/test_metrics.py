"""Metrics on real protocol traces."""

from repro.analysis.metrics import (
    block_decision_latencies,
    chain_growth_rate,
    decided_depth_timeline,
    decision_gaps,
    decision_rounds,
    message_totals,
    participation_timeline,
    stalls,
    transactions_decided,
)
from repro.chain.transactions import Transaction
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import SpikeSchedule


def steady_trace(rounds=20):
    return run_spec(RunSpec(n=5, rounds=rounds, protocol="mmr")).trace


def test_decided_depth_timeline_monotone():
    timeline = decided_depth_timeline(steady_trace())
    assert len(timeline) == 20
    depths = [p.depth for p in timeline]
    assert depths == sorted(depths)
    assert depths[-1] == 9


def test_decision_rounds_and_gaps():
    trace = steady_trace()
    rounds = decision_rounds(trace)
    assert rounds[0] == 3
    assert decision_gaps(trace) == [2] * (len(rounds) - 1)


def test_stalls_run_from_round_one_to_the_horizon():
    trace = steady_trace()
    rounds = decision_rounds(trace)
    walk = stalls(trace)
    assert walk[0] == range(1, rounds[0]) and walk[-1] == range(rounds[-1], 20)
    assert [len(stretch) for stretch in walk[1:-1]] == decision_gaps(trace)
    assert [r for stretch in walk for r in stretch] == list(range(1, 20))
    assert max(map(len, walk)) == 2  # the pipeline's fill is not a stall
    assert stalls(steady_trace(rounds=3)) == [range(1, 3)]  # nothing decided yet


def test_chain_growth_rate():
    trace = steady_trace()
    rate = chain_growth_rate(trace)
    assert 0.4 < rate < 0.55  # one block per two rounds, minus startup
    assert chain_growth_rate(trace, start=10, end=10) == 0.0


def test_block_decision_latencies_steady_state():
    latencies = block_decision_latencies(steady_trace())
    # Genesis (view 0, "proposed" at round 0) decides at round 3; every
    # later block at the MMR headline latency of 3 rounds.
    assert set(latencies) == {3}


def test_transactions_decided():
    txs = [Transaction.create(1, i) for i in range(4)]
    trace = run_spec(RunSpec(n=5, rounds=16, protocol="mmr", transactions={2: txs})).trace
    assert transactions_decided(trace) == 4
    assert transactions_decided(steady_trace()) == 0


def test_message_totals():
    trace = steady_trace(rounds=4)
    totals = message_totals(trace)
    # Round 0: 5 proposes.  Rounds 1-3: 5 votes each; rounds 2: +5 proposes.
    assert totals["proposes"] == 10
    assert totals["votes"] == 15
    assert totals["other"] == 0


def test_participation_timeline():
    schedule = SpikeSchedule(10, drop_fraction=0.5, start=2, duration=2)
    trace = run_spec(RunSpec(n=10, rounds=6, protocol="mmr", schedule=schedule)).trace
    timeline = participation_timeline(trace)
    assert timeline[0] == (0, 10, 10)
    assert timeline[2] == (2, 5, 5)
    assert timeline[4] == (4, 10, 10)
