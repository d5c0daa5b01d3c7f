"""η = 0 is the original protocol: trace-for-trace equivalence.

The strongest implementation oracle in the suite: the resilient
protocol's only deviation from MMR is the vote window, so with η = 0
the two independent code paths must produce *identical* executions
under every workload, adversary, and network condition.
"""

import pytest

from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import DiurnalSchedule, RandomChurnSchedule, SpikeSchedule


def decision_tuples(trace):
    return [(d.pid, d.round, d.view, d.tip) for d in trace.decisions]


#: name -> (schedule factory, attack script); either may be ``None``.
SCENARIOS = {
    "steady": (None, None),
    "crash": (None, get_script("crash", 10, from_round=0)),
    "equivocation": (None, AttackScript("e", (phase(24, corrupt(9), equivocate()),))),
    "spike": (lambda: SpikeSchedule(10, 0.5, start=8, duration=6), None),
    "churn": (lambda: RandomChurnSchedule(10, 0.1, seed=4, min_awake=6), None),
    "diurnal": (lambda: DiurnalSchedule(10, period=10, min_fraction=0.6), None),
    "attack": (None, get_script("split-vote", 10)),
}


def build(name, **protocol):
    schedule, script = SCENARIOS[name]
    config = TOBRunConfig(n=10, rounds=24, schedule=schedule and schedule(), **protocol)
    return config if script is None else apply_script(config, script)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_eta_zero_trace_equals_mmr(name):
    base = run_tob(build(name, protocol="mmr"))
    modified = run_tob(build(name, protocol="resilient", eta=0))
    assert decision_tuples(base) == decision_tuples(modified), name
    # Message activity must match too, not just outcomes.
    base_counts = [(r.votes_sent, r.proposes_sent) for r in base.rounds]
    mod_counts = [(r.votes_sent, r.proposes_sent) for r in modified.rounds]
    assert base_counts == mod_counts, name
