"""Failure-injection runs: everything at once, safety throughout."""

from fractions import Fraction

import pytest

from repro.analysis.assumptions import check_eta_sleepiness
from repro.analysis.checkers import check_healing, check_safety, check_transaction_liveness
from repro.chain.transactions import Transaction
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.adversary import Adversary
from repro.sleepy.schedule import RandomChurnSchedule, SpikeSchedule


def test_churn_plus_crash_plus_equivocation_stays_safe_and_live():
    n, eta = 24, 4
    # One equivocator; two more processes fall to the adversary at round 12.
    mixed = AttackScript(
        "mixed", (phase(12, corrupt(23), equivocate()), phase(38, corrupt(21, 22)))
    )
    tx = Transaction.create(5, 1)
    trace = run_tob(
        apply_script(
            TOBRunConfig(
                n=n,
                rounds=50,
                protocol="resilient",
                eta=eta,
                schedule=RandomChurnSchedule(n, churn_per_round=0.04, seed=9, min_awake=18),
                transactions={6: [tx]},
            ),
            mixed,
        )
    )
    assert check_safety(trace).ok
    assert check_transaction_liveness(trace, tx.tx_id).ok


def test_attack_during_spike_with_equivocation():
    """Participation spike + asynchronous split-vote attack simultaneously."""
    n = 30
    trace = run_tob(
        apply_script(
            TOBRunConfig(
                n=n,
                rounds=30,
                protocol="resilient",
                eta=4,
                schedule=SpikeSchedule(n, drop_fraction=0.3, start=8, duration=8),
            ),
            get_script("split-vote", n, target_round=12, byz=[27, 28, 29]),
        )
    )
    assert check_safety(trace).ok


def test_repeated_outages_with_healing_between():
    """Two separate asynchronous windows (beyond the paper's single-period
    model, flagged as an extension): heal after each."""
    trace = run_tob(
        apply_script(
            TOBRunConfig(
                n=12,
                rounds=44,
                protocol="resilient",
                eta=4,
                conditions=NetworkConditions(periods=(AsyncPeriod(9, 2), AsyncPeriod(25, 3))),
            ),
            get_script("crash", 12, byz=[11], from_round=0),
        )
    )
    assert check_safety(trace).ok
    assert check_healing(trace, last_async_round=11, k=1).ok
    assert check_healing(trace, last_async_round=28, k=1).ok


def test_growing_corruption_mid_run_preserves_safety():
    class GrowingCrash(Adversary):
        def byzantine(self, r):
            if r < 10:
                return frozenset()
            if r < 20:
                return frozenset({10, 11})
            return frozenset({9, 10, 11})

    trace = run_tob(
        TOBRunConfig(n=12, rounds=36, protocol="resilient", eta=3, adversary=GrowingCrash())
    )
    assert check_safety(trace).ok
    assert any(d.round > 24 for d in trace.decisions)


@pytest.mark.parametrize("protocol,eta", [("mmr", 0), ("resilient", 4)])
def test_eta_sleepiness_holds_on_benign_runs(protocol, eta):
    trace = run_tob(TOBRunConfig(n=12, rounds=24, protocol=protocol, eta=eta))
    assert check_eta_sleepiness(trace, eta=eta, beta=Fraction(1, 3)).ok
