"""Scenario constructors: shapes and end-to-end behaviour."""

from repro.analysis.checkers import check_safety
from repro.harness import run_tob
from repro.workloads.scenarios import (
    blackout_scenario,
    churn_scenario,
    ethereum_outage_scenario,
    split_vote_attack_scenario,
)


def test_split_vote_scenario_configuration():
    config = split_vote_attack_scenario("mmr", eta=0, pi=2, n=20, target_round=10)
    (period,) = config.conditions.periods
    assert period.ra == 8 and period.pi == 2
    # The rounds the simulator hands the adversary delivery control in.
    assert [r for r in range(20) if config.resolved_conditions().is_asynchronous(r)] == [9, 10]
    # ... and the one it splits the vote in, having starved the one before.
    assert config.adversary.timeline.state_at(9).withheld
    assert config.adversary.timeline.state_at(10).behaviour.op == "split_vote"
    assert config.adversary.byzantine(0) == frozenset(range(16, 20))
    assert config.meta["scenario"] == "split-vote-attack"


def test_split_vote_scenario_behaviour_pair():
    assert not check_safety(run_tob(split_vote_attack_scenario("mmr", eta=0))).ok
    assert check_safety(run_tob(split_vote_attack_scenario("resilient", eta=2))).ok


def test_blackout_scenario_resilient_decides_safely_where_mmr_stalls():
    ra, pi = 9, 2
    window = range(ra + 1, ra + pi + 1)
    resilient = run_tob(blackout_scenario("resilient", eta=3, pi=pi))
    assert check_safety(resilient).ok
    # The expiration mechanism keeps deciding through the blackout from
    # retained (unexpired) votes — and those decisions are safe.
    assert [d for d in resilient.decisions if d.round in window]
    # The original protocol has an empty tally during the blackout: stall.
    mmr = run_tob(blackout_scenario("mmr", eta=0, pi=pi))
    assert check_safety(mmr).ok
    assert not [d for d in mmr.decisions if d.round in window]


def test_ethereum_outage_scenario_keeps_growing():
    config = ethereum_outage_scenario(n=20, start=8, duration=10, rounds=30)
    trace = run_tob(config)
    assert check_safety(trace).ok
    during = [d for d in trace.decisions if 10 <= d.round < 18]
    assert during, "the chain must keep growing through the outage"


def test_churn_scenario_with_byzantine_carveout():
    config = churn_scenario("resilient", eta=4, gamma=0.1, n=20, byzantine=2, rounds=30)
    trace = run_tob(config)
    assert check_safety(trace).ok
    assert all(rec.byzantine == frozenset({18, 19}) for rec in trace.rounds)
    # Byzantine processes never sleep even though the walk may put them to bed.
    assert all({18, 19} <= rec.awake for rec in trace.rounds)
