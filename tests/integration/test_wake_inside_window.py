"""A process that wakes inside an asynchronous window must not fork the chain.

The benchmark author's seed-15 fork (ROADMAP, first open item): a process
waking inside a window got part of its backlog there and the rest after;
``_record_proposal`` dropped the second part's proposals below the prune
floor *with their blocks*, so the process sat on a stale tree, tallied a
single vote and decided a Byzantine fork thirty rounds later.  Block
admission no longer depends on proposal bookkeeping.

The run is ``bench/``'s ``sim-churn-async`` with its participation
*unfrozen*: nobody awake at ``ra`` falls asleep before ``ra + π + 1``
(Equation 5, a premise of Definition 5), but wakers are admitted.
"""

import json
import os

import pytest

from repro.analysis.checkers import check_asynchrony_resilience, check_healing, check_safety
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.schedule import SleepSchedule
from repro.workloads.participation import churn_walk
from repro.workloads.transactions import SubmissionRateWorkload

N, ROUNDS, ETA, PI = 50, 100, 4, 3
WINDOW_STARTS = (33, 66)


class HeldThroughWindows(SleepSchedule):
    """``base``, except that whoever is awake at ``ra`` stays awake to ``ra + π + 1``."""

    def __init__(self, base: SleepSchedule, window_starts: tuple[int, ...], pi: int) -> None:
        super().__init__(base.n)
        self._base = base
        self._held_since = {r: ra for ra in window_starts for r in range(ra + 1, ra + pi + 2)}

    def awake(self, round_number: int) -> frozenset[int]:
        ra = self._held_since.get(round_number)
        awake = self._base.awake(round_number)
        return awake if ra is None else awake | self._base.awake(ra)


def verdict(seed: int) -> dict[str, bool]:
    """Definitions 2, 5 and 6 on one seed of the unfrozen walk."""
    spec = RunSpec(
        n=N,
        rounds=ROUNDS,
        protocol="resilient",
        eta=ETA,
        schedule=HeldThroughWindows(churn_walk(N, ETA, 0.2, seed=seed), WINDOW_STARTS, PI),
        adversary=RandomAdversary(range(45, 50), seed=seed),
        conditions=NetworkConditions(periods=tuple(AsyncPeriod(ra, PI) for ra in WINDOW_STARTS)),
        transactions=SubmissionRateWorkload(6, seed=seed, payload_bytes=64),
        seed=seed,
    )
    trace = SimulationBackend().execute(spec).trace
    return {
        "safe": check_safety(trace).ok,
        "resilient": all(check_asynchrony_resilience(trace, ra, PI).ok for ra in WINDOW_STARTS),
        "healed": all(
            check_healing(trace, last_async_round=ra + PI, k=1).ok for ra in WINDOW_STARTS
        ),
    }


@pytest.mark.parametrize("seed", [15, 38])
def test_waking_inside_a_window_keeps_defs_2_5_6(seed):
    assert verdict(seed) == {"safe": True, "resilient": True, "healed": True}


@pytest.mark.slow
@pytest.mark.skipif(
    "SAFETY_SEEDS_OUT" not in os.environ,
    reason="the CI safety-seeds lane (~4 min): set SAFETY_SEEDS_OUT to the verdict file to write",
)
def test_no_unsafe_seed_in_two_hundred():
    verdicts = {seed: verdict(seed) for seed in range(200)}
    with open(os.environ["SAFETY_SEEDS_OUT"], "w") as handle:
        json.dump(verdicts, handle, indent=1)
    unsafe = [seed for seed, v in verdicts.items() if not v["safe"]]
    assert not unsafe, f"unsafe seeds: {unsafe}"
