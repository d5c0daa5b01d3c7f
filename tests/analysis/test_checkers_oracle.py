"""Randomized-oracle tests: checkers vs brute-force recomputation.

In the style of ``tests/core/test_incremental_votes.py``: each checker
in :mod:`repro.analysis.checkers` is confronted with a naive,
straight-from-the-definition recomputation over the raw trace —

* Definition 2 safety as an all-pairs scan over decision events,
* Definition 5 resilience as the literal per-event window constraint,
* Definition 6 healing as an all-pairs scan plus the liveness margin —

on three families of seeded protocol traces (honest churn runs, the
split-vote attack with planted violations, starved-delivery blackouts)
and on fully synthetic randomized traces (random block trees with
random decision events, including planted forks and empty-log tips).
"""

import random

import pytest

from repro.analysis.checkers import (
    check_asynchrony_resilience,
    check_healing,
    check_safety,
)
from repro.chain.block import Block, genesis_block
from repro.chain.tree import BlockTree
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import RandomChurnSchedule
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace
from repro.workloads import blackout_scenario, split_vote_attack_scenario


# ----------------------------------------------------------------------
# Brute-force recomputations (the definitions, literally)
# ----------------------------------------------------------------------
def brute_safety_conflicts(trace: Trace) -> set[frozenset]:
    """Definition 2, all pairs: the set of conflicting decided-tip pairs."""
    pairs: set[frozenset] = set()
    decisions = trace.decisions
    for i, a in enumerate(decisions):
        for b in decisions[i + 1 :]:
            if trace.tree.conflict(a.tip, b.tip):
                pairs.add(frozenset({a.tip, b.tip}))
    return pairs


def brute_resilience_violations(trace: Trace, ra: int, pi: int) -> set[tuple]:
    """Definition 5, literally: every decision event that conflicts with
    ``D_ra`` while the definition constrains its decider."""
    d_ra = {d.tip for d in trace.decisions if d.round <= ra}
    h_ra = trace.record(ra).honest if ra < trace.horizon else frozenset()
    violations: set[tuple] = set()
    for event in trace.decisions:
        if event.round <= ra:
            continue
        during_window = event.round <= ra + pi + 1
        if during_window and event.pid not in h_ra:
            continue  # the window only binds processes of H_ra
        if any(trace.tree.conflict(event.tip, tip) for tip in d_ra):
            violations.add((event.pid, event.round, event.view, event.tip))
    return violations


def brute_healing(trace: Trace, last_async_round: int, k: int = 1, margin: int = 8) -> dict:
    """Definition 6, literally: post-healing pairwise safety + a fresh
    decision within the liveness margin."""
    healed_from = last_async_round + k
    post = [d for d in trace.decisions if d.round > healed_from]
    safety_ok = not any(
        trace.tree.conflict(a.tip, b.tip) for i, a in enumerate(post) for b in post[i + 1 :]
    )
    first_after = min((d.round for d in post), default=None)
    rounds_to = None if first_after is None else first_after - healed_from
    liveness_ok = rounds_to is not None and rounds_to <= margin
    return {
        "ok": safety_ok and liveness_ok,
        "safety_ok": safety_ok,
        "liveness_ok": liveness_ok,
        "rounds_to_decision": rounds_to,
    }


def assert_checkers_match_brute_force(trace: Trace, ra: int, pi: int, healed: int) -> None:
    safety = check_safety(trace, max_conflicts=1 << 20)
    brute_pairs = brute_safety_conflicts(trace)
    assert safety.ok == (not brute_pairs)
    assert {frozenset({c.first.tip, c.second.tip}) for c in safety.conflicts} == brute_pairs

    resilience = check_asynchrony_resilience(trace, ra=ra, pi=pi)
    brute_bad = brute_resilience_violations(trace, ra, pi)
    assert resilience.ok == (not brute_bad)
    assert {
        (c.second.pid, c.second.round, c.second.view, c.second.tip)
        for c in resilience.conflicts
    } == brute_bad

    healing = check_healing(trace, last_async_round=healed)
    brute = brute_healing(trace, healed)
    assert healing.ok == brute["ok"]
    assert healing.safety_ok == brute["safety_ok"]
    assert healing.liveness_ok == brute["liveness_ok"]
    assert healing.rounds_to_decision == brute["rounds_to_decision"]


# ----------------------------------------------------------------------
# Seeded protocol traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_honest_churn_traces_agree_with_brute_force(seed):
    trace = run_spec(
        RunSpec(
            n=8,
            rounds=20,
            protocol="resilient",
            eta=3,
            schedule=RandomChurnSchedule(8, 0.15, seed=seed, min_awake=5),
            seed=seed,
        )
    ).trace
    rng = random.Random(seed)
    for _ in range(6):
        ra = rng.randrange(0, trace.horizon + 2)
        pi = rng.randrange(0, 6)
        assert_checkers_match_brute_force(trace, ra, pi, healed=rng.randrange(0, 24))


@pytest.mark.parametrize("pi,eta", [(1, 0), (2, 0), (1, 2), (3, 6)])
def test_split_vote_traces_agree_with_brute_force(pi, eta):
    """The planted-violation family: mmr with η=0 forks under the attack
    (the brute force must find the same conflicts the checker reports);
    resilient with π < η does not."""
    protocol = "mmr" if eta == 0 else "resilient"
    config = split_vote_attack_scenario(protocol, eta=eta, pi=pi, n=12)
    trace = run_spec(config).trace
    ra = config.meta["ra"]
    if eta == 0:
        assert brute_safety_conflicts(trace)  # the attack really landed
    else:
        assert not brute_safety_conflicts(trace)
    rng = random.Random(pi * 31 + eta)
    assert_checkers_match_brute_force(trace, ra, pi, healed=ra + pi)
    for _ in range(4):
        assert_checkers_match_brute_force(
            trace, rng.randrange(0, trace.horizon + 2), rng.randrange(0, 5),
            healed=rng.randrange(0, trace.horizon + 4),
        )


@pytest.mark.parametrize("pi", [2, 5])
def test_starved_delivery_traces_agree_with_brute_force(pi):
    """Blackout (withholding) runs: nothing is delivered for π rounds,
    decisions stall, then heal — the healing checker and its brute-force
    recomputation must agree on the recovery point."""
    config = blackout_scenario("resilient", eta=4, pi=pi, n=10)
    trace = run_spec(config).trace
    ra = config.meta["ra"]
    assert_checkers_match_brute_force(trace, ra, pi, healed=ra + pi)
    # The healing verdict itself (not just agreement): the resilient
    # protocol recovers after the blackout ends.
    assert check_healing(trace, last_async_round=ra + pi).ok


# ----------------------------------------------------------------------
# Synthetic randomized traces (planted forks, empty-log tips)
# ----------------------------------------------------------------------
def random_trace(rng: random.Random, n: int = 6, rounds: int = 16) -> Trace:
    tree = BlockTree([genesis_block()])
    tips = [None, genesis_block().block_id]
    for i in range(rng.randrange(4, 14)):
        parent = rng.choice(tips[1:])  # any existing block, forks included
        block = Block(parent=parent, proposer=rng.randrange(n), view=i + 1, salt=rng.randrange(4))
        tree.add(block)
        tips.append(block.block_id)
    trace = Trace(n=n, tree=tree)
    for r in range(rounds):
        awake = frozenset(pid for pid in range(n) if rng.random() < 0.8) or frozenset({0})
        byz = frozenset(pid for pid in awake if rng.random() < 0.2)
        trace.rounds.append(
            RoundRecord(
                round=r,
                awake=awake,
                byzantine=byz,
                asynchronous=rng.random() < 0.3,
                votes_sent=0,
                proposes_sent=0,
                other_sent=0,
            )
        )
    for _ in range(rng.randrange(0, 12)):
        trace.decisions.append(
            DecisionEvent(
                pid=rng.randrange(n),
                round=rng.randrange(rounds),
                view=rng.randrange(1, 8),
                tip=rng.choice(tips),
            )
        )
    trace.decisions.sort(key=lambda d: (d.round, d.pid))
    return trace


@pytest.mark.parametrize("seed", range(20))
def test_synthetic_random_traces_agree_with_brute_force(seed):
    rng = random.Random(1000 + seed)
    trace = random_trace(rng)
    for _ in range(8):
        assert_checkers_match_brute_force(
            trace,
            ra=rng.randrange(0, trace.horizon + 2),
            pi=rng.randrange(0, 6),
            healed=rng.randrange(0, trace.horizon + 4),
        )
