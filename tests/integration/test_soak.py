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
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.harness import TOBRunConfig, build_simulation, run_simulation
from repro.sleepy.adversary import Adversary, EquivocatingVoteAdversary, SplitVoteAttack
from repro.sleepy.schedule import RandomChurnSchedule

N = 24
ROUNDS = 500
ETA = 4
WINDOW_1 = (99, 2)  # blackout-ish window (attack passive here)
WINDOW_2 = (299, 3)  # split-vote attack window, target round 302


class SoakAdversary(Adversary):
    """Equivocates throughout; corruption grows at round 250; runs the
    split-vote attack inside the second asynchronous window."""

    def __init__(self):
        self._equivocator = EquivocatingVoteAdversary([23])
        self._attack = SplitVoteAttack([21, 22, 23], target_round=302)

    def byzantine(self, r):
        base = frozenset({23})
        if r >= 250:
            base |= {21, 22}
        return base

    def send(self, r, ctx):
        messages = list(self._equivocator.send(r, ctx))
        if r >= 250:
            messages += list(self._attack.send(r, ctx))
        return messages

    def deliver(self, r, receiver, deliverable, ctx):
        if 300 <= r <= 302:
            return self._attack.deliver(r, receiver, deliverable, ctx)
        return deliverable


@pytest.fixture(scope="module")
def soak():
    config = TOBRunConfig(
        n=N,
        rounds=ROUNDS,
        protocol="resilient",
        eta=ETA,
        schedule=RandomChurnSchedule(N, churn_per_round=0.03, seed=13, min_awake=18),
        adversary=SoakAdversary(),
        conditions=NetworkConditions(periods=(AsyncPeriod(*WINDOW_1), AsyncPeriod(*WINDOW_2))),
    )
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
