"""Randomized theorem checks: assumptions on the trace ⇒ conclusions.

A fuzzing harness in the paper's logical shape.  Each trial draws a
random schedule, a random asynchronous window, and a fully randomized
adversary (silence, random votes, equivocation, random forks,
back-dated tags, random delivery subsets), runs the η-expiration
protocol, then *validates the paper's assumptions on the executed
trace*.  Whenever they hold, the theorem conclusions must too:

* Equations 1–3 hold on a fully synchronous run       ⇒ safety;
* Equations 4–5 hold around the asynchronous window   ⇒ Definition 5
  resilience and Definition 6 healing.

Trials whose random draw violates the assumptions are *counted* but
assert nothing (the theorems promise nothing there) — except safety
under synchrony with a below-threshold adversary, which has no churn
caveat and must always hold.
"""

import random

from fractions import Fraction

from repro.analysis import (
    check_asynchrony_conditions,
    check_asynchrony_resilience,
    check_eta_sleepiness,
    check_healing,
    check_reduced_failure_ratio,
    check_safety,
)
from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.schedule import RandomChurnSchedule

THIRD = Fraction(1, 3)


def random_trial(seed: int) -> dict:
    rng = random.Random(seed)
    n = rng.randrange(12, 25)
    eta = rng.randrange(2, 6)
    byz_count = rng.randrange(0, max(1, n // 5))
    rounds = 40
    pi = rng.randrange(1, eta)  # within the Theorem 2 boundary
    ra = rng.randrange(8, 16)
    if ra % 2 == 1:
        ra += 1  # even ra keeps the window ending before a decision round

    config = TOBRunConfig(
        n=n,
        rounds=rounds,
        protocol="resilient",
        eta=eta,
        schedule=RandomChurnSchedule(
            n,
            churn_per_round=rng.choice([0.0, 0.03, 0.08]),
            seed=seed,
            min_awake=max(2, int(0.7 * n)),
        ),
        adversary=RandomAdversary(
            list(range(n - byz_count, n)), seed=seed, drop_probability=rng.random()
        ),
        conditions=NetworkConditions.window(ra=ra, pi=pi),
        seed=seed,
    )
    trace = run_tob(config)

    failure_ok = check_reduced_failure_ratio(trace, THIRD, Fraction(0)).ok
    sleepiness_ok = check_eta_sleepiness(trace, eta=eta, beta=THIRD).ok
    async_ok = check_asynchrony_conditions(trace, ra=ra, pi=pi, eta=eta, beta=THIRD).ok
    return {
        "trace": trace,
        "ra": ra,
        "pi": pi,
        "assumptions": failure_ok and sleepiness_ok,
        "async_assumptions": failure_ok and sleepiness_ok and async_ok,
    }


def test_randomized_theorem_conclusions():
    admitted = async_admitted = 0
    for seed in range(25):
        trial = random_trial(seed)
        trace = trial["trace"]
        if trial["assumptions"]:
            admitted += 1
            report = check_safety(trace)
            assert report.ok, (seed, report.conflicts[:2])
        if trial["async_assumptions"]:
            async_admitted += 1
            assert check_asynchrony_resilience(trace, ra=trial["ra"], pi=trial["pi"]).ok, seed
            healing = check_healing(
                trace, last_async_round=trial["ra"] + trial["pi"], k=1, liveness_margin=10
            )
            assert healing.safety_ok, seed
    # The harness is not vacuous: most random draws satisfy the bounds.
    assert admitted >= 15, admitted
    assert async_admitted >= 10, async_admitted


def test_random_adversary_is_deterministic_per_seed():
    a = random_trial(3)["trace"]
    b = random_trial(3)["trace"]
    assert [(d.pid, d.round, d.tip) for d in a.decisions] == [
        (d.pid, d.round, d.tip) for d in b.decisions
    ]
