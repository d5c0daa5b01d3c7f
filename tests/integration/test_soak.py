"""Long-horizon soak: hundreds of rounds of everything at once.

Churn, growing corruption, equivocation, two separated asynchronous
windows with the split-vote attack in the second — safety, resilience,
healing, memory bounds, and assumption accounting all checked on one
500-round run.
"""

from fractions import Fraction

import pytest

from repro.analysis import (
    chain_growth_rate,
    check_asynchrony_resilience,
    check_eta_sleepiness,
    check_healing,
    check_safety,
    max_reorg_depth,
)
from repro.attacks import (
    AttackScript,
    apply_script,
    corrupt,
    equivocate,
    phase,
    split_vote,
    withhold,
)
from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig, build_simulation, run_simulation
from repro.sleepy.schedule import RandomChurnSchedule

N = 24
ROUNDS = 500
ETA = 4
WINDOW_1 = (99, 2)  # an asynchronous window the adversary leaves alone (the spec's)
WINDOW_2 = (299, 3)  # the script's: two withheld rounds, then the split vote at 302

#: Equivocation throughout; corruption grows at round 250; the
#: split-vote attack fills the second asynchronous window.
SOAK_SCRIPT = AttackScript(
    name="soak",
    phases=(
        phase(250, corrupt(23), equivocate()),
        phase(50, corrupt(21, 22)),
        phase(2, withhold()),
        phase(1, split_vote(range(0, N, 2), range(1, N, 2))),
        phase(ROUNDS - 303, equivocate()),
    ),
)


@pytest.fixture(scope="module")
def soak():
    config = apply_script(
        TOBRunConfig(
            n=N,
            rounds=ROUNDS,
            protocol="resilient",
            eta=ETA,
            schedule=RandomChurnSchedule(N, churn_per_round=0.03, seed=13, min_awake=18),
            conditions=NetworkConditions.window(*WINDOW_1),
        ),
        SOAK_SCRIPT,
    )
    assert [(p.ra, p.pi) for p in config.conditions.periods] == [WINDOW_1, WINDOW_2]
    sim = build_simulation(config)
    trace = run_simulation(sim, config)
    return sim, trace


def test_soak_safety_end_to_end(soak):
    _, trace = soak
    assert check_safety(trace).ok
    assert max_reorg_depth(trace) == 0


def test_soak_resilience_at_both_windows(soak):
    _, trace = soak
    assert check_asynchrony_resilience(trace, ra=WINDOW_1[0], pi=WINDOW_1[1]).ok
    assert check_asynchrony_resilience(trace, ra=WINDOW_2[0], pi=WINDOW_2[1]).ok


def test_soak_heals_after_each_window(soak):
    _, trace = soak
    assert check_healing(trace, last_async_round=sum(WINDOW_1), k=1).ok
    assert check_healing(trace, last_async_round=sum(WINDOW_2), k=1).ok


def test_soak_sustained_throughput(soak):
    _, trace = soak
    assert chain_growth_rate(trace, start=10) > 0.4
    # Decisions still happening at the very end of the run.
    assert any(d.round >= ROUNDS - 4 for d in trace.decisions)


def test_soak_assumptions_hold_modulo_windows(soak):
    _, trace = soak
    report = check_eta_sleepiness(trace, eta=ETA, beta=Fraction(1, 3))
    assert report.ok, report.failures[:3]


def test_soak_memory_stays_bounded(soak):
    sim, _ = soak
    for process in sim.processes.values():
        assert len(process._votes) <= N * (ETA + 2)
        assert len(process._proposals) <= 4


def test_soak_equivocator_caught(soak):
    sim, trace = soak
    # Within the unexpired window at the end of the run the equivocator
    # kept double-voting; every honest process has current evidence.
    honest_final = trace.rounds[-1].honest
    for pid in honest_final:
        assert 23 in sim.processes[pid].detected_equivocators()
