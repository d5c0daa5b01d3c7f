"""Property-based simulator invariants under random schedules/adversaries.

These pin down the execution model itself (§2.1), independent of any
protocol: delivery causality, exactly-once delivery, sleepers receiving
nothing, and eventual delivery of everything once synchrony holds.
"""

from collections.abc import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.sleepy.adversary import NullAdversary
from repro.sleepy.messages import Message, make_vote
from repro.sleepy.process import Process
from repro.sleepy.schedule import TableSchedule
from repro.sleepy.simulator import Simulation


class LedgerProcess(Process):
    """Sends one vote per round; ledgers every send/receive with rounds."""

    def __init__(self, pid, key, verifier):
        super().__init__(pid)
        self._key = key
        self._verifier = verifier
        self.sent: list[Message] = []
        self.deliveries: list[tuple[int, Message]] = []

    def send(self, round_number):
        vote = make_vote(self._verifier.registry, self._key, round_number, None)
        self.sent.append(vote)
        return [vote]

    def receive(self, round_number, messages: Sequence[Message]):
        self.deliveries.extend((round_number, m) for m in messages)


class SubsetAdversary(NullAdversary):
    """Delivers a pseudorandom subset during asynchronous rounds."""

    def __init__(self, pattern: list[bool]):
        self._pattern = pattern
        self._i = 0

    def deliver(self, round_number, receiver, deliverable, ctx):
        chosen = []
        for message in deliverable:
            keep = self._pattern[self._i % len(self._pattern)] if self._pattern else True
            self._i += 1
            if keep:
                chosen.append(message)
        return chosen


schedule_tables = st.lists(
    st.sets(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    min_size=6,
    max_size=12,
)
async_windows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3)),
    max_size=2,
)
subset_patterns = st.lists(st.booleans(), min_size=1, max_size=7)


def build(table, windows, pattern, tail_rounds=4):
    n = 5
    rounds = len(table)
    # Terminate with full participation + synchrony so "eventual
    # delivery" is checkable.
    full_table = {r: awake for r, awake in enumerate(table)}
    for r in range(rounds, rounds + tail_rounds):
        full_table[r] = set(range(n))
    schedule = TableSchedule(n, full_table, default=set(range(n)))
    # Clamp windows inside the pre-tail region and drop overlaps.
    clean = []
    occupied: set[int] = set()
    for ra, pi in windows:
        span = set(range(ra + 1, ra + pi + 1))
        if span and not span & occupied and max(span) < rounds:
            clean.append((ra, pi))
            occupied |= span
    conditions = NetworkConditions(periods=tuple(AsyncPeriod(ra, pi) for ra, pi in clean))
    registry = KeyRegistry(n, run_seed=1)
    sim = Simulation(
        registry,
        schedule,
        SubsetAdversary(pattern),
        conditions,
        lambda pid, key, verifier: LedgerProcess(pid, key, verifier),
    )
    sim.run(rounds + tail_rounds)
    return sim, rounds + tail_rounds


@given(schedule_tables, async_windows, subset_patterns)
@settings(max_examples=60, deadline=None)
def test_no_delivery_before_send_and_exactly_once(table, windows, pattern):
    sim, _ = build(table, windows, pattern)
    for process in sim.processes.values():
        seen: set[tuple] = set()
        for deliver_round, message in process.deliveries:
            assert message.round <= deliver_round  # causality
            assert message.content_key not in seen  # exactly-once
            seen.add(message.content_key)


@given(schedule_tables, async_windows, subset_patterns)
@settings(max_examples=60, deadline=None)
def test_sleepers_receive_nothing(table, windows, pattern):
    sim, horizon = build(table, windows, pattern)
    for pid, process in sim.processes.items():
        awake_receive_rounds = {
            r for r in range(horizon) if pid in sim.schedule.awake(r + 1)
        }
        for deliver_round, _ in process.deliveries:
            assert deliver_round in awake_receive_rounds


@given(schedule_tables, async_windows, subset_patterns)
@settings(max_examples=60, deadline=None)
def test_everything_is_delivered_once_synchrony_returns(table, windows, pattern):
    """Messages survive asynchrony: after the synchronous tail, every
    process has received every message ever sent (paper §2.1)."""
    sim, _ = build(table, windows, pattern)
    all_sent = {m.content_key for p in sim.processes.values() for m in p.sent}
    for process in sim.processes.values():
        received = {m.content_key for _, m in process.deliveries}
        assert received == all_sent


@given(schedule_tables, async_windows, subset_patterns)
@settings(max_examples=40, deadline=None)
def test_send_phases_match_schedule(table, windows, pattern):
    sim, horizon = build(table, windows, pattern)
    for pid, process in sim.processes.items():
        sent_rounds = [m.round for m in process.sent]
        expected = [r for r in range(horizon) if pid in sim.schedule.awake(r)]
        assert sent_rounds == expected
