"""Seed-grid regression: safety and liveness across a parameter lattice.

A wide, shallow sweep that would catch any nondeterminism or
seed-sensitive regression: protocols × η × workloads × seeds, asserting
the invariants that must hold at *every* grid point.
"""

import pytest

from repro.analysis import chain_growth_rate, check_safety
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, phase
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import RandomChurnSchedule

GRID = [
    (protocol, eta)
    for protocol, etas in (("mmr", [0]), ("resilient", [1, 4]))
    for eta in etas
]


@pytest.mark.parametrize("protocol,eta", GRID)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_point_safety_and_progress(protocol, eta, seed):
    n = 15
    # The last process is corrupted: silent on even seeds, equivocating on odd ones.
    behaviour = () if seed % 2 == 0 else (equivocate(),)
    trace = run_tob(
        apply_script(
            TOBRunConfig(
                n=n,
                rounds=30,
                protocol=protocol,
                eta=eta,
                schedule=RandomChurnSchedule(n, churn_per_round=0.05, seed=seed, min_awake=10),
                seed=seed,
            ),
            AttackScript("one-faulty", (phase(30, corrupt(n - 1), *behaviour),)),
        )
    )
    assert check_safety(trace).ok
    assert chain_growth_rate(trace, start=6) > 0.3


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_runs_are_deterministic(seed):
    def run():
        n = 12
        return run_tob(
            TOBRunConfig(
                n=n,
                rounds=20,
                protocol="resilient",
                eta=3,
                schedule=RandomChurnSchedule(n, churn_per_round=0.08, seed=seed, min_awake=8),
                seed=seed,
            )
        )

    a, b = run(), run()
    assert [(d.pid, d.round, d.tip) for d in a.decisions] == [
        (d.pid, d.round, d.tip) for d in b.decisions
    ]
    assert [r.awake for r in a.rounds] == [r.awake for r in b.rounds]
    assert [(r.votes_sent, r.proposes_sent) for r in a.rounds] == [
        (r.votes_sent, r.proposes_sent) for r in b.rounds
    ]
