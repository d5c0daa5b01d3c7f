"""Assumption-driven validation: when Equations 1–5 hold on a trace, the
theorem conclusions must hold on the same trace.

This is the paper's logical structure executed end-to-end: experiments
first *validate* the model assumptions on the executed run, then check
the theorem's conclusion — so a failure pinpoints whether the model or
the protocol broke.
"""

from fractions import Fraction

import pytest

from repro.analysis.assumptions import (
    check_asynchrony_conditions,
    check_churn,
    check_eta_sleepiness,
    check_reduced_failure_ratio,
)
from repro.analysis.checkers import check_asynchrony_resilience, check_healing, check_safety
from repro.attacks import apply_script, get_script
from repro.harness import TOBRunConfig, run_tob
from repro.workloads.scenarios import blackout_scenario, split_vote_attack_scenario

THIRD = Fraction(1, 3)


@pytest.mark.parametrize("pi,eta", [(1, 2), (2, 4), (3, 4)])
def test_theorem2_pipeline_attack(pi, eta):
    config = split_vote_attack_scenario("resilient", eta=eta, pi=pi, n=20)
    trace = run_tob(config)
    ra = config.meta["ra"]

    # Model assumptions on the executed trace (full participation, so
    # churn is zero and γ = 0 ⇒ β̃ = β).
    assert check_reduced_failure_ratio(trace, THIRD, Fraction(0)).ok
    assert check_churn(trace, eta=eta, gamma=Fraction(0)).ok
    assert check_eta_sleepiness(trace, eta=eta, beta=THIRD).ok
    assert check_asynchrony_conditions(trace, ra=ra, pi=pi, eta=eta, beta=THIRD).ok

    # Theorem conclusions.
    assert check_safety(trace).ok
    assert check_asynchrony_resilience(trace, ra=ra, pi=pi).ok


@pytest.mark.parametrize("pi,eta", [(1, 2), (3, 4)])
def test_theorem3_pipeline_blackout(pi, eta):
    config = blackout_scenario("resilient", eta=eta, pi=pi, ra=9, rounds=32)
    trace = run_tob(config)
    assert check_asynchrony_conditions(trace, ra=9, pi=pi, eta=eta, beta=THIRD).ok
    assert check_safety(trace).ok
    assert check_healing(trace, last_async_round=9 + pi, k=1).ok


def test_assumption_validators_flag_oversized_adversary():
    """Sanity: the pipeline is not vacuous — an oversized adversary is
    caught by the Equation 2 validator."""
    # The scenario corrupts 2 of 10 (ok); the same attack with 4 of 10 is not.
    config = apply_script(
        TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=4),
        get_script("split-vote", 10, byz=range(6, 10)),
    )
    trace = run_tob(config)
    assert not check_reduced_failure_ratio(trace, THIRD, Fraction(0)).ok
