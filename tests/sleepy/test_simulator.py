"""Round simulator semantics: phases, delivery, model enforcement."""

from collections.abc import Sequence

import pytest

from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import NetworkConditions
from repro.sleepy.adversary import NullAdversary
from repro.sleepy.messages import Message, make_vote
from repro.sleepy.process import Process
from repro.sleepy.schedule import FullParticipation, TableSchedule
from repro.sleepy.simulator import ModelViolationError, Simulation


class ProbeProcess(Process):
    """Votes for the empty log every round; records everything."""

    def __init__(self, pid, key, verifier):
        super().__init__(pid)
        self._key = key
        self._verifier = verifier
        self.send_rounds: list[int] = []
        self.received: list[tuple[int, tuple[tuple, ...]]] = []

    def send(self, round_number: int) -> Sequence[Message]:
        self.send_rounds.append(round_number)
        return [make_vote(self._verifier.registry, self._key, round_number, None)]

    def receive(self, round_number: int, messages: Sequence[Message]) -> None:
        self.received.append((round_number, tuple(m.content_key for m in messages)))

    def received_ids(self) -> set[tuple]:
        return {mid for _, ids in self.received for mid in ids}


def probe_factory(pid, key, verifier):
    return ProbeProcess(pid, key, verifier)


def make_sim(n=4, schedule=None, adversary=None, conditions=None):
    registry = KeyRegistry(n, run_seed=1)
    return Simulation(
        registry,
        schedule or FullParticipation(n),
        adversary or NullAdversary(),
        conditions or NetworkConditions.synchronous(),
        probe_factory,
    )


def test_everyone_sends_and_receives_each_synchronous_round():
    sim = make_sim(n=3)
    sim.run(4)
    for process in sim.processes.values():
        assert process.send_rounds == [0, 1, 2, 3]
        # Each round: one vote from each of the 3 processes (self included).
        assert [len(ids) for _, ids in process.received] == [3, 3, 3, 3]


def test_no_duplicate_deliveries_under_synchrony():
    sim = make_sim(n=3)
    sim.run(5)
    for process in sim.processes.values():
        all_ids = [mid for _, ids in process.received for mid in ids]
        assert len(all_ids) == len(set(all_ids))


def test_sleeper_gets_backlog_on_wake():
    # Process 2 sleeps during rounds 1 and 2 (O_1, O_2), returns in O_3.
    schedule = TableSchedule(3, {1: {0, 1}, 2: {0, 1}}, default={0, 1, 2})
    sim = make_sim(n=3, schedule=schedule)
    sim.run(4)
    sleeper = sim.processes[2]
    assert sleeper.send_rounds == [0, 3]
    # Not in O_1 ⇒ missed even round 0's receive phase (receive phases
    # belong to O_{r+1}).  Awake again at the beginning of round 3 ⇒
    # participated in round 2's receive phase and picked up the entire
    # backlog of rounds 0–2 at once.
    receive_rounds = [r for r, _ in sleeper.received]
    assert receive_rounds == [2, 3]
    assert len(sleeper.received[0][1]) == 7  # 3 + 2 + 2 votes from rounds 0-2
    awake_ids = sim.processes[0].received_ids()
    assert sleeper.received_ids() == awake_ids


def test_asleep_process_not_consulted():
    schedule = TableSchedule(2, {1: {0}}, default={0, 1})
    sim = make_sim(n=2, schedule=schedule)
    sim.run(2)
    assert sim.processes[1].send_rounds == [0]


class SelectiveAdversary(NullAdversary):
    """Delivers only the lexicographically first deliverable message."""

    def deliver(self, round_number, receiver, deliverable, ctx):
        return sorted(deliverable, key=lambda m: m.content_key)[:1]


def test_asynchronous_round_delivery_is_adversary_controlled():
    sim = make_sim(n=3, adversary=SelectiveAdversary(), conditions=NetworkConditions.window(ra=0, pi=1))
    sim.run(3)
    for process in sim.processes.values():
        by_round = dict(process.received)
        assert len(by_round[0]) == 3  # round 0: synchronous
        assert len(by_round[1]) == 1  # round 1: asynchronous, 1 delivered
        # Round 2 synchronous: the withheld round-1 votes arrive with round 2's.
        assert len(by_round[2]) == 5
        assert len(process.received_ids()) == 9


class InjectingAdversary(NullAdversary):
    """Tries to deliver a message that was never deliverable."""

    def __init__(self, registry):
        self._registry = registry

    def deliver(self, round_number, receiver, deliverable, ctx):
        forged = make_vote(self._registry, self._registry.secret_key(0), 99, None)
        return [forged]


def test_adversary_cannot_inject_through_delivery():
    registry = KeyRegistry(2, run_seed=0)
    sim = Simulation(
        registry,
        FullParticipation(2),
        InjectingAdversary(registry),
        NetworkConditions.window(ra=0, pi=1),
        probe_factory,
    )
    sim.run(1)  # round 0 synchronous: fine
    with pytest.raises(ModelViolationError, match="outside the deliverable set"):
        sim.run(1)


class ShrinkingAdversary(NullAdversary):
    growing = True

    def byzantine(self, round_number):
        return frozenset({0}) if round_number == 0 else frozenset()


def test_growing_adversary_must_be_monotone():
    sim = make_sim(n=3, adversary=ShrinkingAdversary())
    with pytest.raises(ModelViolationError, match="shrank"):
        sim.run(2)


class MisattributingProcess(ProbeProcess):
    def send(self, round_number):
        wrong_key = self._verifier.registry.secret_key((self.pid + 1) % 2)
        return [make_vote(self._verifier.registry, wrong_key, round_number, None)]


def test_honest_process_cannot_send_as_another():
    registry = KeyRegistry(2, run_seed=0)
    sim = Simulation(
        registry,
        FullParticipation(2),
        NullAdversary(),
        NetworkConditions.synchronous(),
        lambda pid, key, verifier: MisattributingProcess(pid, key, verifier),
    )
    with pytest.raises(ModelViolationError, match="signed as"):
        sim.run(1)


class ImpersonatingAdversary(NullAdversary):
    def __init__(self, registry):
        self._registry = registry

    def byzantine(self, round_number):
        return frozenset({1})

    def send(self, round_number, ctx):
        # Signs with an honest key it should not have.
        return [make_vote(self._registry, self._registry.secret_key(0), round_number, None)]


def test_adversary_cannot_send_as_honest_process():
    registry = KeyRegistry(3, run_seed=0)
    sim = Simulation(
        registry,
        FullParticipation(3),
        ImpersonatingAdversary(registry),
        NetworkConditions.synchronous(),
        probe_factory,
    )
    with pytest.raises(ModelViolationError, match="not corrupted"):
        sim.run(1)


def test_byzantine_processes_never_sleep_and_never_receive():
    class ByzAdversary(NullAdversary):
        def byzantine(self, round_number):
            return frozenset({1})

    # Process 1 is scheduled asleep, but corruption keeps it in O_r.
    schedule = TableSchedule(3, {}, default={0, 2})
    sim = make_sim(n=3, schedule=schedule, adversary=ByzAdversary())
    trace = sim.run(3)
    for rec in trace.rounds:
        assert 1 in rec.awake
        assert 1 in rec.byzantine
        assert rec.honest == frozenset({0, 2})
    assert sim.processes[1].send_rounds == []
    assert sim.processes[1].received == []


def test_trace_round_records_message_counts():
    sim = make_sim(n=3)
    trace = sim.run(2)
    assert trace.rounds[0].votes_sent == 3
    assert trace.rounds[0].proposes_sent == 0
    assert trace.horizon == 2


def test_run_continues_from_previous_horizon():
    sim = make_sim(n=2)
    sim.run(2)
    trace = sim.run(3)
    assert [rec.round for rec in trace.rounds] == [0, 1, 2, 3, 4]


def test_schedule_registry_size_mismatch_rejected():
    registry = KeyRegistry(3, run_seed=0)
    with pytest.raises(ValueError, match="disagree"):
        Simulation(
            registry,
            FullParticipation(4),
            NullAdversary(),
            NetworkConditions.synchronous(),
            probe_factory,
        )
