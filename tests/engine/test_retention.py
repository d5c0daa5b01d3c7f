"""A message is kept while a receiver can still get it, and no longer.

Two properties, on both substrates:

* **bounded** — past the first η + 10 rounds, the bus log, the bus's
  dedup keys, the verdict table and a shard's seen index each hold at
  most a constant number of rounds' messages, however long the run, and
  a shard's bus holds more only for a sleeper's nap, never for a
  corrupted node or for what a node behind a dropping partition can
  never receive;
* **exact** — forgetting never costs a second verification: the
  simulator still checks every published message exactly once, for a
  process that sleeps past the horizon, under adversarial withholding,
  and for a replay, which is suppressed inside the horizon and published
  (and verified) once more past it.

The exact cases pin counts and decision digests measured before the
bus forgot anything; only the replay past the horizon differs, by the
one message it now publishes.
"""

from __future__ import annotations

import gc
import hashlib

import pytest

from repro.attacks import AttackScript, apply_script, drop, heal, phase
from repro.engine.conditions import NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.net.gossip import SeenIndex
from repro.protocols.tob_base import SleepyTOBProcess
from repro.runtime.delivery import ShardDelivery
from repro.sleepy.adversary import Adversary, RandomAdversary
from repro.sleepy.horizon import RoundBuckets, seen_horizon
from repro.sleepy.messages import MessageInterner, VoteMessage
from repro.sleepy.schedule import TableSchedule

from tests.net.conftest import run_virtual

ETA = 4
ROUNDS = 300
#: Rounds' worth of messages each table may hold: the key horizon plus
#: the round in progress and one of slack.
BOUND_ROUNDS = seen_horizon(ETA) + 2


def _spec(**overrides) -> RunSpec:
    fields = {"n": 12, "rounds": ROUNDS, "protocol": "resilient", "eta": ETA, "seed": 3}
    return RunSpec(**{**fields, **overrides})


def _digest(trace) -> str:
    rows = sorted((d.pid, d.round, d.view, d.tip or "") for d in trace.decisions)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Bounded
# ----------------------------------------------------------------------
def test_round_buckets_release_in_round_order_and_never_below_the_floor():
    buckets = RoundBuckets(floor=2)
    buckets.bucket(3).append("late")
    buckets.bucket(0).append("early")  # below the floor: filed at it
    buckets.bucket(2).append("next")
    assert buckets.release(3) == ["early", "next"]
    assert buckets.release(3) == []
    assert buckets.release(10) == ["late"]
    assert buckets.floor == 10


def test_simulator_retains_a_constant_number_of_rounds_messages():
    simulation = SimulationBackend().build(_spec())
    sizes = []
    for r in range(ROUNDS):
        simulation.run(1)
        if r >= ETA + 10:
            bus = simulation.bus
            sizes.append((bus.retained, bus.key_count, len(simulation.pipeline.interner)))
    per_round = simulation.bus.total_published / ROUNDS
    log, keys, verdicts = (max(column) for column in zip(*sizes))
    # Every receiver is awake: the log and the verdicts hold one round.
    assert log <= 2 * per_round and verdicts <= 2 * per_round
    assert keys <= BOUND_ROUNDS * per_round
    assert simulation.pipeline.stats["crypto_verifications"] == simulation.bus.total_published


def _live_votes() -> int:
    gc.collect()
    return sum(isinstance(each, VoteMessage) for each in gc.get_objects())


def test_no_delivered_tuple_of_a_closed_round_outlives_a_run():
    """The batch memo holds the round in progress only: after a run, the
    votes still alive are no more than the verdict table keeps."""
    before = _live_votes()
    simulation = SimulationBackend().build(_spec(rounds=60))
    simulation.run(60)
    live = _live_votes() - before
    assert 0 < live <= len(simulation.pipeline.interner)


def test_a_shard_retains_a_constant_number_of_rounds_messages(monkeypatch):
    """``processes=1`` on the virtual clock: the verdict table follows the
    seen index, which forgets at η + 8 rounds."""
    verdicts, seen = [], []
    interner_advance, seen_advance = MessageInterner.advance, SeenIndex.advance

    def recording_interner(self, now, floor):
        verdicts.append((now, len(self)))
        interner_advance(self, now, floor)

    def recording_seen(self, now):
        seen.append((now, len(self)))
        seen_advance(self, now)

    monkeypatch.setattr(MessageInterner, "advance", recording_interner)
    monkeypatch.setattr(SeenIndex, "advance", recording_seen)
    result = run_virtual(DeploymentBackend(delta_s=0.02).execute_async(_spec()))
    assert result.trace.decisions
    published = sum(r.votes_sent + r.proposes_sent + r.other_sent for r in result.trace.rounds)
    per_round = published / ROUNDS
    for sizes in (verdicts, seen):
        assert [now for now, _ in sizes] == list(range(ROUNDS))
        late = [size for now, size in sizes if now >= ETA + 10]
        assert max(late) <= BOUND_ROUNDS * per_round


def _shard_bus_retained(spec: RunSpec, monkeypatch) -> tuple[list[int], float, dict]:
    """What a one-shard deployment's bus holds once each round is entered,
    the messages published per round, and the run's gossip totals."""
    retained = []
    advance = ShardDelivery.advance

    def recording(self, r, corrupted):
        advance(self, r, corrupted)
        retained.append(self.bus.retained)
        assert self.bus.stats["duplicates"] == 0  # the seen index admits once

    monkeypatch.setattr(ShardDelivery, "advance", recording)
    result = run_virtual(DeploymentBackend(delta_s=0.02).execute_async(spec))
    assert result.trace.decisions and len(retained) == spec.rounds
    published = sum(r.votes_sent + r.proposes_sent + r.other_sent for r in result.trace.rounds)
    return retained, published / spec.rounds, result.extras["gossip"]


def test_a_shards_bus_keeps_a_sleepers_nap_and_releases_it_on_waking(monkeypatch):
    n = 12
    nap = range(100, 126)  # pid 0 sleeps 26 rounds, past the key horizon
    schedule = TableSchedule(n, {r: frozenset(range(1, n)) for r in nap})
    retained, per_round, _ = _shard_bus_retained(_spec(schedule=schedule), monkeypatch)
    assert max(retained[ETA + 10 : nap.start]) <= 2 * per_round
    assert seen_horizon(ETA) * per_round < max(retained) <= (len(nap) + 2) * per_round
    assert max(retained[nap.stop + 1 :]) <= 2 * per_round


def test_a_corrupted_node_pins_nothing_in_its_shards_bus(monkeypatch):
    spec = _spec(adversary=RandomAdversary([11], seed=1))
    retained, per_round, _ = _shard_bus_retained(spec, monkeypatch)
    assert max(retained[ETA + 10 :]) <= 2 * per_round


def test_a_node_behind_a_dropping_partition_releases_what_it_can_never_receive(monkeypatch):
    """Every frame to pid 11 is lost for most of the run: what it lacks
    stays pending only until the seen index forgets it."""
    script = AttackScript(
        name="cut-off",
        phases=(phase(4), phase(ROUNDS - 20, drop(None, 11, 1.0)), phase(16, heal())),
    )
    spec = apply_script(_spec(), script)
    handed: list[tuple[int, int]] = []  # (round, sender) of all pid 11 receives
    receive = SleepyTOBProcess.receive

    def recording(self, round_number, messages):
        if self.pid == 11:
            handed.extend((round_number, m.sender) for m in messages)
        receive(self, round_number, messages)

    monkeypatch.setattr(SleepyTOBProcess, "receive", recording)
    retained, per_round, gossip = _shard_bus_retained(spec, monkeypatch)
    cut_off = range(6, ROUNDS - 16)
    assert {sender for r, sender in handed if r in cut_off} == {11}
    late = retained[ETA + 10 :]
    assert 2 * per_round < max(late) <= BOUND_ROUNDS * per_round
    assert retained[-1] <= 2 * per_round  # healed: caught up again
    assert gossip["stale_dropped"] == 0


# ----------------------------------------------------------------------
# Exact
# ----------------------------------------------------------------------
def _run(spec: RunSpec, before=None):
    simulation = SimulationBackend().build(spec)
    if before is not None:
        before(simulation)
    SimulationBackend.drive(simulation, spec)
    return simulation


def _counts(simulation) -> tuple[int, int, int, str]:
    return (
        simulation.pipeline.stats["crypto_verifications"],
        simulation.bus.total_published,
        len(simulation.trace.decisions),
        _digest(simulation.trace),
    )


def test_a_process_asleep_past_the_horizon_catches_up_verifying_nothing_twice():
    n, rounds = 8, 60
    napping = frozenset(range(1, n))  # pid 0 sleeps through rounds 10-35
    schedule = TableSchedule(n, {r: napping for r in range(10, 36)})
    simulation = SimulationBackend().build(_spec(n=n, rounds=rounds, seed=5, schedule=schedule))
    retained = []
    for _ in range(rounds):
        simulation.run(1)
        retained.append(simulation.bus.retained)
    assert _counts(simulation) == (673, 673, 219, "87153d37699ef864")
    # The sleeper pinned its whole nap in the log, past the key horizon.
    assert max(retained) > seen_horizon(ETA) * n
    assert retained[-1] <= 2 * simulation.bus.total_published / rounds


def test_withholding_in_an_asynchronous_window_verifies_nothing_twice():
    spec = _spec(
        n=10,
        rounds=50,
        seed=2,
        adversary=RandomAdversary([9], seed=2),
        conditions=NetworkConditions.window(ra=15, pi=3),
    )
    assert _counts(_run(spec)) == (713, 713, 198, "45161b125a61473b")


class Replayer(Adversary):
    """Corrupts pid 7 from round 20 and replays its honest round-15 vote.

    It reads the vote off the bus as the model's adversary reads every
    message sent; ``bus`` is set once the simulation is built.
    """

    def __init__(self, replay_at: tuple[int, ...]) -> None:
        self.replay_at = replay_at
        self.bus = None
        self.stash: list[VoteMessage] = []

    def byzantine(self, round_number: int) -> frozenset[int]:
        return frozenset({7}) if round_number >= 20 else frozenset()

    def send(self, round_number, ctx):
        if round_number == 15:
            self.stash = [
                m for m in self.bus.deliverable(0) if m.sender == 7 and isinstance(m, VoteMessage)
            ]
        return list(self.stash) if round_number in self.replay_at else []


@pytest.mark.parametrize(
    "replay_at, published, duplicates",
    [
        ((), 547, 0),
        ((21,), 547, 1),  # key accepted at 15, kept through 15 + η + 8
        ((21, 40), 548, 1),  # past the horizon: published and verified again
    ],
)
def test_a_replay_is_suppressed_inside_the_horizon_and_verified_again_past_it(
    replay_at, published, duplicates
):
    adversary = Replayer(replay_at)

    def hand_over_bus(simulation):
        adversary.bus = simulation.bus

    spec = _spec(n=8, rounds=50, seed=5, adversary=adversary)
    simulation = _run(spec, before=hand_over_bus)
    assert len(adversary.stash) == 1
    assert _counts(simulation) == (published, published, 177, "535ff9830e190c3f")
    assert simulation.bus.stats["duplicates"] == duplicates
