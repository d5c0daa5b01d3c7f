"""η = 0 is the original protocol: trace-for-trace equivalence.

The strongest implementation oracle in the suite: the resilient
protocol's only deviation from MMR is the vote window, so with η = 0
the two independent code paths must produce *identical* executions
under every workload, adversary, and network condition.
"""

import pytest

from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.adversary import CrashAdversary, EquivocatingVoteAdversary, SplitVoteAttack
from repro.sleepy.schedule import DiurnalSchedule, RandomChurnSchedule, SpikeSchedule


def decision_tuples(trace):
    return [(d.pid, d.round, d.view, d.tip) for d in trace.decisions]


SCENARIOS = {
    "steady": lambda: {},
    "crash": lambda: {"adversary": CrashAdversary([8, 9])},
    "equivocation": lambda: {"adversary": EquivocatingVoteAdversary([9])},
    "spike": lambda: {"schedule": SpikeSchedule(10, 0.5, start=8, duration=6)},
    "churn": lambda: {"schedule": RandomChurnSchedule(10, 0.1, seed=4, min_awake=6)},
    "diurnal": lambda: {"schedule": DiurnalSchedule(10, period=10, min_fraction=0.6)},
    "attack": lambda: {
        "adversary": SplitVoteAttack([8, 9], target_round=10),
        "conditions": NetworkConditions.window(ra=9, pi=1),
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_eta_zero_trace_equals_mmr(name):
    make = SCENARIOS[name]
    base = run_tob(TOBRunConfig(n=10, rounds=24, protocol="mmr", **make()))
    modified = run_tob(TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=0, **make()))
    assert decision_tuples(base) == decision_tuples(modified), name
    # Message activity must match too, not just outcomes.
    base_counts = [(r.votes_sent, r.proposes_sent) for r in base.rounds]
    mod_counts = [(r.votes_sent, r.proposes_sent) for r in modified.rounds]
    assert base_counts == mod_counts, name
