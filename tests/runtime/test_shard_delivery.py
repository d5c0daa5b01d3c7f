"""A shard receives through its bus: one log, a cursor per node.

* **counting** — the gossip seen index and the bus forget a key on one
  horizon, so every first arrival at a node is exactly one pending bus
  entry, and a node's receive phase hands it exactly what reached it;
* **sharing** — a synchronous round's caught-up nodes get one tuple;
* **order** — log order, not arrival order, and that changes nothing a
  process computes: a shard batch received in any order leaves the same
  state, and a twin that hands each node its own arrival-ordered list
  decides and reads every GA identically;
* **memory** — a corrupted node, which never runs a receive phase,
  keeps nothing alive.
"""

from __future__ import annotations

import collections
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import apply_script, get_script
from repro.crypto.signatures import KeyRegistry
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, SeenIndex
from repro.protocols.tob_base import SleepyTOBProcess
from repro.runtime.delivery import ShardDelivery
from repro.runtime.node import DeployedNode
from repro.runtime.shard import ShardRuntime
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.messages import ProposeMessage, VoteMessage, make_vote
from repro.workloads import SubmissionRateWorkload, surge_scenario

from tests.net.conftest import NoLinks, StillClock, no_surge, run_virtual, tap_arrivals

HORIZON = 3


def _decisions(trace) -> list:
    return sorted((d.pid, d.round, d.view, d.tip or "") for d in trace.decisions)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
_REGISTRY = KeyRegistry(1, run_seed=0)
#: One vote per round: a copy of vote ``r`` is the same content as any other.
_VOTES = [make_vote(_REGISTRY, _REGISTRY.secret_key(0), r, None) for r in range(24)]

#: One step: enter the next round, a receive phase at a node, or a copy
#: of vote ``i`` reaching a node.
_steps = st.lists(
    st.one_of(
        st.just(("advance",)),
        st.tuples(st.just("take"), st.integers(0, 1)),
        st.tuples(st.just("arrive"), st.integers(0, 1), st.integers(0, len(_VOTES) - 1)),
    ),
    max_size=120,
)


@given(_steps)
@settings(max_examples=150, deadline=None)
def test_a_receive_phase_hands_a_node_exactly_what_reached_it(steps):
    """Two nodes with no links: each gets only what is handed to it.
    Votes of every round relative to the shard's arrive, old (stale),
    current and future (clamped), repeatedly, across forgetting.  The
    bus never refuses what the seen index admitted, and a node's
    receive phase hands it each message that first reached it since its
    last one — kept while it does not receive, withdrawn never."""
    seen = SeenIndex(HORIZON)
    delivery = ShardDelivery(2, (0, 1), seen)
    network = GossipNetwork(
        NoLinks((0, 1)), {0: (), 1: ()}, delivery.admit, seen, StillClock(), no_surge
    )
    reached: dict[int, list] = {0: [], 1: []}
    now = 0
    delivery.advance(now, frozenset())
    for step in steps:
        if step[0] == "advance":
            now += 1
            delivery.advance(now, frozenset())
        elif step[0] == "take":
            pid = step[1]
            taken = delivery.take(pid, network.nodes[pid].stats["delivered"])
            assert collections.Counter(m.content_key for m in taken) == collections.Counter(
                m.content_key for m in reached[pid]
            )
            reached[pid] = []
        else:
            _, pid, i = step
            node = network.nodes[pid]
            before = node.stats["delivered"]
            node.publish(_VOTES[i])
            if node.stats["delivered"] > before:
                reached[pid].append(_VOTES[i])
        assert delivery.bus.stats["duplicates"] == 0


def test_what_one_node_lacks_when_its_key_is_forgotten_is_withdrawn_from_it():
    """A message node 1 never got stops being pending for it when the
    seen index forgets its key; node 0, which got it but has not
    received since, still receives it."""
    seen = SeenIndex(HORIZON)
    delivery = ShardDelivery(2, (0, 1), seen)
    network = GossipNetwork(
        NoLinks((0, 1)), {0: (), 1: ()}, delivery.admit, seen, StillClock(), no_surge
    )
    delivery.advance(0, frozenset())
    network.nodes[0].publish(_VOTES[0])
    for r in range(1, HORIZON + 2):
        delivery.advance(r, frozenset())
    assert _VOTES[0].content_key not in seen.arrivals
    assert delivery.bus.pending_count(1) == 0
    assert delivery.take(1, network.nodes[1].stats["delivered"]) == ()
    assert list(delivery.take(0, network.nodes[0].stats["delivered"])) == [_VOTES[0]]


def test_a_receive_phase_hands_over_an_honest_vote_tagged_for_the_next_round():
    """``take`` tests no round tag: an honest vote tagged r + 1 that has
    reached a node by its receive phase r is handed over in phase r, on
    the caught-up path and the chosen path alike.  The model never
    delivers an honest message early; this is the early arrival that
    ROADMAP.md's arrival classifier (item 1) is to count, pinned as the
    behaviour it will count."""
    registry = KeyRegistry(2, run_seed=0)
    on_time = make_vote(registry, registry.secret_key(1), 0, None)
    early = make_vote(registry, registry.secret_key(1), 1, None)
    seen = SeenIndex(HORIZON)
    delivery = ShardDelivery(2, (0, 1), seen)
    network = GossipNetwork(
        NoLinks((0, 1)), {0: (), 1: ()}, delivery.admit, seen, StillClock(), no_surge
    )
    delivery.advance(0, frozenset())  # pid 1, the sender, is honest
    network.nodes[0].publish(on_time)
    for pid in (0, 1):
        network.nodes[pid].publish(early)
    # Node 0 holds all it has pending: the caught-up path.
    assert list(delivery.take(0, network.nodes[0].stats["delivered"])) == [on_time, early]
    # Node 1 lacks the round-0 vote: the chosen path, which hands over
    # what the node holds, whatever its tag.
    assert list(delivery.take(1, network.nodes[1].stats["delivered"])) == [early]
    assert early.round == seen.now + 1


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
def _record_receives(monkeypatch) -> list[tuple[int, int, object]]:
    """Every ``(round, pid, batch)`` a process is handed, in order."""
    received = []
    receive = SleepyTOBProcess.receive

    def recording(self, round_number, messages):
        received.append((round_number, self.pid, messages))
        receive(self, round_number, messages)

    monkeypatch.setattr(SleepyTOBProcess, "receive", recording)
    return received


def test_a_synchronous_rounds_caught_up_nodes_receive_one_tuple(monkeypatch):
    received = _record_receives(monkeypatch)
    spec = RunSpec(
        n=6,
        rounds=12,
        protocol="resilient",
        eta=2,
        seed=0,
        transactions=SubmissionRateWorkload(rate_per_round=2, seed=0),
    )
    run_virtual(DeploymentBackend(delta_s=0.02).execute_async(spec))
    by_round: dict[int, list] = collections.defaultdict(list)
    for round_number, _pid, batch in received:
        by_round[round_number].append(batch)
    assert sorted(by_round) == list(range(spec.rounds))
    for batches in by_round.values():
        assert len(batches) == spec.n
        assert type(batches[0]) is tuple and batches[0]
        assert all(batch is batches[0] for batch in batches)


# ----------------------------------------------------------------------
# Order
# ----------------------------------------------------------------------
def _receiving_in_order(order=None) -> dict:
    """A surge run in which one node receives one shard batch — the first
    of more than 16 messages, a catch-up after the surge, proposals and
    votes of three rounds — in ``order``.

    Returns that node, round and batch size, what it sends next, its GA
    reads and the run's decisions.  Everything before the batch repeats
    exactly (the clock is virtual), so every run records the same batch.
    """
    outcome: dict = {}
    receive, send = SleepyTOBProcess.receive, SleepyTOBProcess.send

    def permuting(self, round_number, messages):
        kinds = {type(m) for m in messages}
        if "at" not in outcome and len(messages) > 16 and kinds == {VoteMessage, ProposeMessage}:
            outcome["at"] = (self.pid, round_number, len(messages))
            if order is not None:
                messages = [messages[i] for i in order]
        receive(self, round_number, messages)

    def sending(self, round_number):
        sent = send(self, round_number)
        if outcome.get("at", (None, None))[:2] == (self.pid, round_number - 1):
            outcome["sent"] = [m.content_key for m in sent]
        return sent

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SleepyTOBProcess, "receive", permuting)
        patch.setattr(SleepyTOBProcess, "send", sending)
        spec = surge_scenario(n=8, rounds=12, ra=6, pi=2, seed=1)
        result = run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec))
    pid = outcome["at"][0]
    outcome["ga_reads"] = result.extras["nodes"][pid].process.ga_reads
    outcome["decisions"] = _decisions(result.trace)
    return outcome


_REFERENCE: list[dict] = []


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_a_shard_batch_received_in_any_order_leaves_the_same_state(data):
    if not _REFERENCE:
        _REFERENCE.append(_receiving_in_order())
    [reference] = _REFERENCE
    size = reference["at"][2]
    assert size > 16 and reference["sent"] and reference["decisions"]
    order = data.draw(st.permutations(range(size)))
    assert _receiving_in_order(order) == reference


def _per_node_list_twin(patch) -> None:
    """The shard before its bus: each node keeps the list of what first
    reached it, in arrival order, and its receive phase drains it."""
    lists: dict[int, list] = {}
    #: pid -> the sleep schedule of the shard hosting it.
    schedules: dict = {}
    init = ShardRuntime.__init__

    def init_with_lists(self, *args):
        init(self, *args)
        lists.update((pid, []) for pid in self.nodes)
        schedules.update((pid, self.schedule) for pid in self.nodes)
        tap_arrivals(self.network, lambda pid, message, _at: lists[pid].append(message))

    def drain(self, round_number):
        if self.pid not in schedules[self.pid].awake(round_number + 1):
            return 0
        batch, lists[self.pid] = lists[self.pid], []
        if batch:
            self.process.receive(round_number, batch)
        return len(batch)

    patch.setattr(ShardRuntime, "__init__", init_with_lists)
    patch.setattr(DeployedNode, "run_receive_phase", drain)


def _scripted(name: str, n: int, eta: int):
    script = get_script(name, n)
    base = RunSpec(n=n, rounds=script.total_rounds + 4, protocol="resilient", eta=eta, seed=0)
    return apply_script(base, script)


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: surge_scenario(n=8, rounds=20, ra=6, pi=2, seed=1),
        lambda: _scripted("blackout", 6, 6),
        lambda: _scripted("lossy-links", 8, 4),
    ],
    ids=["surge", "blackout", "lossy-links"],
)
def test_a_bus_shard_replays_its_per_node_list_twin(make_spec, monkeypatch):
    backend = DeploymentBackend(delta_s=0.01)
    bus = run_virtual(backend.execute_async(make_spec()))
    with monkeypatch.context() as patch:
        _per_node_list_twin(patch)
        twin = run_virtual(backend.execute_async(make_spec()))
    assert bus.trace.decisions
    assert _decisions(bus.trace) == _decisions(twin.trace)
    mine, twins = bus.extras["nodes"], twin.extras["nodes"]
    for pid, node in mine.items():
        assert node.process.ga_reads == twins[pid].process.ga_reads, pid


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _live_protocol_messages(rounds: int) -> int:
    """Vote and propose objects alive after a run, its result held."""
    spec = RunSpec(
        n=12,
        rounds=rounds,
        protocol="resilient",
        eta=4,
        seed=3,
        adversary=RandomAdversary([11], seed=1),
    )
    result = run_virtual(DeploymentBackend(processes=1, delta_s=0.03).execute_async(spec))
    assert result.trace.decisions
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) in (VoteMessage, ProposeMessage))


def test_a_corrupted_node_keeps_no_delivery_alive():
    """Corrupted pid 11 never runs a receive phase; what reached it is
    not kept for it, so a run four times longer keeps no more messages
    (a private inbox kept 1,737 at 100 rounds and 6,926 at 400)."""
    short = _live_protocol_messages(100)
    assert _live_protocol_messages(400) <= short + 50
