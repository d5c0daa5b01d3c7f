"""The original MMR protocol: behaviour under faults and participation swings."""

from repro.analysis.checkers import check_safety
from repro.analysis.metrics import chain_growth_rate, decision_gaps
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import SpikeSchedule, TableSchedule


def test_steady_state_decides_every_view():
    trace = run_tob(TOBRunConfig(n=6, rounds=30, protocol="mmr"))
    assert check_safety(trace).ok
    gaps = decision_gaps(trace)
    assert gaps and all(gap == 2 for gap in gaps)  # one decision per view


def test_tolerates_crash_faults_below_threshold():
    # 3 of 10 silent: |B_r| = 3 < 10/3 fails... 3 < 3.33 holds.
    trace = run_tob(
        apply_script(
            TOBRunConfig(n=10, rounds=30, protocol="mmr"),
            get_script("crash", 10, byz=[7, 8, 9], from_round=0),
        )
    )
    assert check_safety(trace).ok
    assert chain_growth_rate(trace) > 0.3


def test_tolerates_equivocation_below_threshold():
    trace = run_tob(
        apply_script(
            TOBRunConfig(n=10, rounds=30, protocol="mmr"),
            AttackScript("equivocation", (phase(30, corrupt(8, 9), equivocate()),)),
        )
    )
    assert check_safety(trace).ok
    assert chain_growth_rate(trace) > 0.3


def test_survives_participation_spike_from_full_to_40_percent():
    # The Ethereum-outage shape: 60% vanish for a while, then return.
    trace = run_tob(
        TOBRunConfig(
            n=10,
            rounds=40,
            protocol="mmr",
            schedule=SpikeSchedule(10, drop_fraction=0.6, start=10, duration=10),
        )
    )
    assert check_safety(trace).ok
    # Chain keeps growing during the outage (dynamic availability).
    during = [d for d in trace.decisions if 12 <= d.round < 20]
    assert during


def test_survives_extreme_drop_to_single_process():
    schedule = TableSchedule(10, {r: {0} for r in range(10, 20)}, default=set(range(10)))
    trace = run_tob(TOBRunConfig(n=10, rounds=30, protocol="mmr", schedule=schedule))
    assert check_safety(trace).ok
    assert any(d.round >= 21 for d in trace.decisions)  # recovers after return


def test_asynchrony_without_adversary_is_harmless_for_safety():
    # Passive adversary: async rounds deliver everything (default deliver).
    trace = run_tob(
        TOBRunConfig(
            n=6, rounds=20, protocol="mmr", conditions=NetworkConditions.window(ra=7, pi=3)
        )
    )
    assert check_safety(trace).ok


def test_split_vote_attack_breaks_safety_in_one_async_round():
    """The §1 attack: a single adversarial decision round forks the chain."""
    n = 12
    target = 8
    trace = run_tob(
        apply_script(
            TOBRunConfig(n=n, rounds=16, protocol="mmr"),
            get_script("split-vote", n, target_round=target),  # corrupts 10 and 11
        )
    )
    report = check_safety(trace)
    assert not report.ok, "original MMR must lose safety under the split-vote attack"
    # The conflicting decisions happen right after the attacked round.
    assert any(
        c.first.round == target + 1 or c.second.round == target + 1 for c in report.conflicts
    )


def test_split_vote_attack_fools_both_groups():
    n = 12
    target = 8
    trace = run_tob(
        apply_script(
            TOBRunConfig(n=n, rounds=16, protocol="mmr"),
            get_script("split-vote", n, target_round=target),
        )
    )
    victims = {d.pid for d in trace.decisions if d.round == target + 1}
    # Every honest process decided one of the two forged forks.
    assert victims == set(range(10))
