"""Incremental vote tallies vs brute-force recounts, and equivocator
accountability under interleaved sleep/wake delivery schedules.

The round-bucketed :class:`LatestVoteStore` serves the protocol's
rolling GA windows incrementally; every observable — ``latest`` over
*any* window (single rounds included), ``equivocators``, ``len``,
``prune`` counts — must stay bit-identical to the naive reference implementation
(the pre-refactor store, reproduced verbatim below) under arbitrary
interleavings of records, queries, table merges, and prunes.
"""

import random

import pytest

from repro.attacks import AttackScript, apply_script, corrupt, equivocate, phase
from repro.core.expiration import LatestVoteStore
from repro.harness import TOBRunConfig
from repro.sleepy.messages import EQUIVOCATED_VOTE
from repro.sleepy.schedule import RandomChurnSchedule


class NaiveLatestVoteStore:
    """The pre-refactor per-sender store — the brute-force oracle."""

    _EQUIVOCATED = object()
    _MISSING = object()

    def __init__(self):
        self._by_sender = {}

    def __len__(self):
        return sum(len(rounds) for rounds in self._by_sender.values())

    def record(self, sender, round_number, tip):
        rounds = self._by_sender.setdefault(sender, {})
        existing = rounds.get(round_number, self._MISSING)
        if existing is self._MISSING:
            rounds[round_number] = tip
        elif existing is not self._EQUIVOCATED and existing != tip:
            rounds[round_number] = self._EQUIVOCATED

    def latest(self, window_lo, window_hi):
        if window_lo > window_hi:
            return {}
        result = {}
        for sender, rounds in self._by_sender.items():
            best_round = -1
            for r in rounds:
                if window_lo <= r <= window_hi and r > best_round:
                    best_round = r
            if best_round < 0:
                continue
            tip = rounds[best_round]
            if tip is self._EQUIVOCATED:
                continue
            result[sender] = tip
        return result

    def equivocators(self):
        return frozenset(
            sender
            for sender, rounds in self._by_sender.items()
            if any(tip is self._EQUIVOCATED for tip in rounds.values())
        )

    def prune(self, before_round):
        dropped = 0
        for sender in list(self._by_sender):
            rounds = self._by_sender[sender]
            stale = [r for r in rounds if r < before_round]
            for r in stale:
                del rounds[r]
            dropped += len(stale)
            if not rounds:
                del self._by_sender[sender]
        return dropped


def assert_equivalent(store, naive, lo, hi):
    assert store.latest(lo, hi) == naive.latest(lo, hi), (lo, hi)
    assert store.equivocators() == naive.equivocators()
    assert len(store) == len(naive)


# ----------------------------------------------------------------------
# Randomised interleavings against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_interleaved_records_queries_and_prunes_match_oracle(seed):
    """Protocol-shaped access: rolling windows, trailing prunes, and a
    random mix of timely, late, equivocating, and post-dated votes."""
    rng = random.Random(seed)
    eta = rng.choice([0, 1, 2, 4])
    store, naive = LatestVoteStore(), NaiveLatestVoteStore()
    senders = range(8)
    for g in range(40):
        for sender in senders:
            if rng.random() < 0.8:
                tagged = g if rng.random() < 0.8 else rng.randint(max(0, g - 4), g + 3)
                tip = rng.choice(["a", "b", "c", None])
                store.record(sender, tagged, tip)
                naive.record(sender, tagged, tip)
                if rng.random() < 0.1:  # same-round equivocation
                    other = rng.choice(["a", "b", "d"])
                    store.record(sender, tagged, other)
                    naive.record(sender, tagged, other)
        # The protocol's rolling query (exercises the roll-forward path).
        assert_equivalent(store, naive, max(0, g - eta), g)
        if rng.random() < 0.5:  # an off-pattern window (rebuild path)
            lo = rng.randint(0, 44)
            assert_equivalent(store, naive, lo, lo + rng.randint(0, 6))
        if rng.random() < 0.7:  # trailing expiration
            cutoff = g - eta - rng.randint(0, 2)
            assert store.prune(cutoff) == naive.prune(cutoff)
            assert_equivalent(store, naive, max(0, g - eta), g)
    for r in range(44):  # what survives, bucket by bucket
        assert_equivalent(store, naive, r, r)


@pytest.mark.parametrize("seed", range(6))
def test_table_merges_match_per_vote_records(seed):
    """Adopting round-resolved vote tables (the batched ingest path) is
    equivalent to recording the same votes one by one — including
    conflicts *across* deliveries and within-table equivocation marks."""
    rng = random.Random(100 + seed)
    store, naive = LatestVoteStore(), NaiveLatestVoteStore()
    for step in range(30):
        table = {}
        for _ in range(rng.randint(1, 12)):
            r = rng.randint(0, 10)
            sender = rng.randint(0, 5)
            value = rng.choice(["a", "b", None, EQUIVOCATED_VOTE])
            table.setdefault(r, {})[sender] = value
        store.record_table(table)
        for r, delta in table.items():
            for sender, value in delta.items():
                if value is EQUIVOCATED_VOTE:
                    # An in-batch conflict is two different signed votes.
                    naive.record(sender, r, "x")
                    naive.record(sender, r, "y")
                else:
                    naive.record(sender, r, value)
        lo = rng.randint(0, 10)
        assert_equivalent(store, naive, lo, lo + rng.randint(0, 5))
        if rng.random() < 0.3:
            cutoff = rng.randint(0, 8)
            assert store.prune(cutoff) == naive.prune(cutoff)


def test_repeat_query_after_prune_inside_window():
    """Pruning into the cached window must evict exactly the pruned
    entries from the aggregate (the old store recomputed from scratch)."""
    store, naive = LatestVoteStore(), NaiveLatestVoteStore()
    for s, r, tip in [(0, 2, "a"), (1, 4, "b"), (2, 6, "c"), (1, 5, "d")]:
        store.record(s, r, tip)
        naive.record(s, r, tip)
    assert_equivalent(store, naive, 2, 6)  # window cached
    assert store.prune(5) == naive.prune(5)
    assert_equivalent(store, naive, 2, 6)  # same window, post-prune


# ----------------------------------------------------------------------
# Equivocator accountability under interleaved sleep/wake schedules
# ----------------------------------------------------------------------
def test_equivocators_survive_sleep_wake_interleavings():
    """A store fed through sleep gaps — batches of several rounds'
    votes delivered at once, as a waking process receives them — must
    attribute equivocations identically to per-round delivery."""
    gap_store, steady_store = LatestVoteStore(), LatestVoteStore()
    backlog = []
    for r in range(12):
        votes = [(pid, r, "a") for pid in range(4)]
        if r in (3, 7):  # pid 3 double-votes in these rounds
            votes.append((3, r, "b"))
        backlog.extend(votes)
        for vote in votes:
            steady_store.record(*vote)
        if r % 4 == 3:  # the sleeper wakes every 4 rounds, catches up
            for vote in backlog:
                gap_store.record(*vote)
            backlog = []
    for vote in backlog:
        gap_store.record(*vote)
    assert gap_store.equivocators() == steady_store.equivocators() == frozenset({3})
    # After the evidence expires, the accountability set shrinks in both.
    for store in (gap_store, steady_store):
        store.prune(8)
        assert store.equivocators() == frozenset()


@pytest.mark.slow
def test_detected_equivocators_end_to_end_under_churn():
    """End to end: an equivocating adversary under a random sleep/wake
    schedule is caught by every honest process that saw the evidence,
    and nobody honest is ever accused."""
    trace_config = apply_script(
        TOBRunConfig(
            n=10,
            rounds=24,
            protocol="resilient",
            eta=3,
            schedule=RandomChurnSchedule(10, 0.15, seed=3, min_awake=6),
            seed=3,
        ),
        AttackScript("equivocation", (phase(24, corrupt(9), equivocate()),)),
    )
    from repro.harness import build_simulation
    from repro.engine.sim_backend import SimulationBackend

    simulation = build_simulation(trace_config)
    SimulationBackend.drive(simulation, trace_config)
    accused = set()
    for pid, process in simulation.processes.items():
        if pid == 9:
            continue
        detected = process.detected_equivocators()
        assert detected <= {9}, f"honest process accused: {detected}"
        accused |= detected
    assert accused == {9}
