"""Gossip overlay: flooding, deduplication, elision, sender-sleep survival."""

import asyncio
import math
import random

import pytest

from repro.crypto.signatures import KeyRegistry
from repro.net.gossip import GossipNetwork, regular_topology
from repro.net.transport import LinkLatencyModel, SimTransport, SurgeWindow
from repro.sleepy.messages import make_vote

from tests.net.conftest import run_virtual


def test_regular_topology_is_connected_and_regular():
    topology = regular_topology(12, degree=4, seed=1)
    assert set(topology) == set(range(12))
    for pid, neighbors in topology.items():
        assert len(neighbors) == 4
        assert pid not in neighbors
        for q in neighbors:
            assert pid in topology[q]  # undirected


def test_an_overlay_is_part_of_a_seeded_runs_identity():
    """The seeded draw itself, pinned where networkx is not installed."""
    assert regular_topology(8, degree=5, seed=0) == {
        0: (2, 3, 4, 5, 6),
        1: (2, 4, 5, 6, 7),
        2: (0, 1, 3, 4, 7),
        3: (0, 2, 5, 6, 7),
        4: (0, 1, 2, 6, 7),
        5: (0, 1, 3, 6, 7),
        6: (0, 1, 3, 4, 5),
        7: (1, 2, 3, 4, 5),
    }
    assert regular_topology(12, degree=4, seed=1)[0] == (1, 5, 7, 11)


def test_regular_topology_draws_what_networkx_draws():
    """The in-tree pairing is networkx's, draw for draw from the same
    seed — dense cases (where attempts fail and retry) included."""
    nx = pytest.importorskip("networkx")

    def reference(n, degree, seed):
        rng = random.Random(seed)
        for _ in range(32):
            graph = nx.random_regular_graph(degree, n, seed=rng.randrange(1 << 30))
            if nx.is_connected(graph):
                return {pid: tuple(sorted(graph.neighbors(pid))) for pid in range(n)}
        raise AssertionError("no connected overlay in 32 draws")

    for n in (6, 7, 8, 9, 10, 12, 16, 50, 400):
        for degree in (3, 4, 5, 8):
            if n <= degree + 1 or (n * degree) % 2 == 1:
                continue  # the complete-graph fallback draws nothing
            for seed in range(25):
                assert regular_topology(n, degree, seed) == reference(n, degree, seed), (
                    n,
                    degree,
                    seed,
                )


def test_tiny_networks_fall_back_to_complete_graph():
    topology = regular_topology(3, degree=4)
    assert topology[0] == (1, 2)
    assert topology[2] == (0, 1)


def _flood_scenario(n: int, degree: int, publisher: int = 0):
    async def scenario():
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.001, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        network = GossipNetwork(
            transport,
            regular_topology(n, degree, seed=0),
            on_deliver=lambda pid, m: delivered[pid].append(m.message_id),
        )
        transport.start()
        vote = make_vote(registry, registry.secret_key(publisher), 0, None)
        network.nodes[publisher].publish(vote)
        await asyncio.sleep(0.1)  # >> diameter · latency
        network.stop()
        return delivered, vote

    return asyncio.run(scenario())


def test_published_message_floods_every_node():
    delivered, vote = _flood_scenario(n=12, degree=3)
    for pid in range(12):
        assert delivered[pid] == [vote.message_id]


def test_each_node_delivers_each_message_exactly_once():
    delivered, vote = _flood_scenario(n=8, degree=4)
    for messages in delivered.values():
        assert messages.count(vote.message_id) == 1


def test_dissemination_survives_publisher_silence():
    """Once published, the message spreads without further publisher help —
    the paper's 'messages are disseminated even if the sender sleeps'."""

    async def scenario():
        n = 10
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.0, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        network = GossipNetwork(
            transport,
            regular_topology(n, 3, seed=0),
            on_deliver=lambda pid, m: delivered[pid].append(m.message_id),
        )
        transport.start()
        vote = make_vote(registry, registry.secret_key(0), 0, None)
        network.nodes[0].publish(vote)
        # Unsubscribe the publisher immediately: its own forwards were
        # already sent; the rest of the overlay must finish the flood.
        network.nodes[0].stop()
        await asyncio.sleep(0.1)
        network.stop()
        return delivered, vote

    delivered, vote = asyncio.run(scenario())
    for pid in range(10):
        assert vote.message_id in delivered[pid]


def test_transplanted_id_cannot_censor_honest_message():
    """Regression for the headline dedup bug: front-running an honest
    message's *self-reported* id must not suppress the honest original.

    The adversary floods a junk message whose memoised ``_message_id``
    slot is overwritten with the honest message's id.  Under the old
    id-keyed dedup every node marked that id seen and refused to flood
    the honest message; under content-keyed dedup the two messages have
    different keys and both flood.
    """

    async def scenario():
        n = 10
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.0, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        network = GossipNetwork(
            transport,
            regular_topology(n, 3, seed=0),
            on_deliver=lambda pid, m: delivered[pid].append(m.content_key),
        )
        transport.start()
        honest = make_vote(registry, registry.secret_key(0), 0, None)
        junk = make_vote(registry, registry.secret_key(1), 0, None)
        # Transplant the honest id into the junk message's memo slot —
        # exactly what an adversary controls on objects it constructs.
        object.__setattr__(junk, "_message_id", honest.message_id)
        assert junk.message_id == honest.message_id
        network.nodes[1].publish(junk)
        await asyncio.sleep(0.05)  # let the junk flood finish first
        network.nodes[0].publish(honest)
        await asyncio.sleep(0.1)
        network.stop()
        return delivered, honest

    delivered, honest = asyncio.run(scenario())
    honest_key = honest.content_key
    for pid in range(10):
        assert honest_key in delivered[pid], f"node {pid} censored the honest message"


def test_dissemination_survives_sleeping_originator_during_surge():
    """§2.1 end to end: the originator publishes, goes to sleep
    immediately, and a latency surge is in force — the message is
    delayed, never lost, and still reaches every other node."""

    async def scenario():
        n = 10
        registry = KeyRegistry(n, run_seed=0)
        surge = SurgeWindow(start_s=0.0, end_s=0.25, factor=10.0)
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.0, seed=0, surges=(surge,))
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        network = GossipNetwork(
            transport,
            regular_topology(n, 3, seed=0),
            on_deliver=lambda pid, m: delivered[pid].append(m.message_id),
        )
        transport.start()
        vote = make_vote(registry, registry.secret_key(0), 0, None)
        network.nodes[0].publish(vote)
        # The originator sleeps mid-flood, while every hop is surged.
        network.nodes[0].stop()
        await asyncio.sleep(0.6)  # diameter · surged hop latency, with slack
        network.stop()
        return delivered, vote

    delivered, vote = asyncio.run(scenario())
    for pid in range(10):
        assert vote.message_id in delivered[pid]


def test_seen_set_is_bounded_by_the_expiry_horizon():
    """Soak-lane memory: dedup entries are evicted once older than the
    horizon, and re-arrivals of evicted (stale) messages are dropped —
    counted, never re-flooded."""

    async def scenario():
        horizon = 3
        senders = 4
        rounds = 50
        registry = KeyRegistry(senders, run_seed=0)
        transport = SimTransport(1, base_latency_s=0.001, jitter_s=0.0, seed=0)
        transport.start()
        current = [0]
        network = GossipNetwork(
            transport,
            {0: ()},
            on_deliver=lambda pid, m: None,
            current_round=lambda: current[0],
            seen_horizon_rounds=horizon,
        )
        node = network.nodes[0]
        votes = {}
        for r in range(rounds):
            current[0] = r
            for sender in range(senders):
                vote = make_vote(registry, registry.secret_key(sender), r, None)
                votes[(r, sender)] = vote
                node.publish(vote)
            # Live entries never exceed one horizon's worth of rounds.
            assert len(network.seen) <= (horizon + 1) * senders
        assert node.stats["delivered"] == rounds * senders
        assert network.stats_totals()["seen_entries"] == len(network.seen)

        # An evicted message re-arriving is stale: dropped and audited,
        # not re-flooded (which would loop forever on a live overlay).
        stale = votes[(0, 0)]
        node.publish(stale)
        assert node.stats["stale_dropped"] == 1
        assert node.stats["delivered"] == rounds * senders
        return True

    assert asyncio.run(scenario())


def test_one_clock_read_per_arrival_with_a_bounded_horizon():
    """First arrivals, duplicates and stale drops each read the round clock once."""

    async def scenario():
        registry = KeyRegistry(2, run_seed=0)
        transport = SimTransport(1)
        transport.start()
        reads = []
        now = [5]

        def clock():
            reads.append(now[0])
            return now[0]

        network = GossipNetwork(
            transport, {0: ()}, lambda pid, m: None, current_round=clock, seen_horizon_rounds=2
        )
        node = network.nodes[0]
        fresh = make_vote(registry, registry.secret_key(0), 5, None)
        stale = make_vote(registry, registry.secret_key(1), 2, None)
        node.publish(fresh)  # first arrival: stale check, bucket clamp, eviction
        assert len(reads) == 1
        node.publish(fresh)  # duplicate
        assert len(reads) == 2
        node.publish(stale)  # stale: dropped before the seen index is consulted
        assert len(reads) == 3
        assert node.stats == {"delivered": 1, "duplicates": 1, "stale_dropped": 1}

    asyncio.run(scenario())


def test_a_raising_consumer_does_not_stop_the_flood():
    """``on_deliver`` raising at one node costs that node's delivery only:
    its forwards were already offered, and its next frame still arrives."""

    async def scenario():
        n = 8
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.0, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}

        def on_deliver(pid, message):
            if pid == 3 and not delivered[3]:
                delivered[3].append("raised")
                raise RuntimeError("consumer bug")
            delivered[pid].append(message.message_id)

        network = GossipNetwork(transport, regular_topology(n, 3, seed=0), on_deliver)
        transport.start()
        first = make_vote(registry, registry.secret_key(0), 0, None)
        second = make_vote(registry, registry.secret_key(1), 0, None)
        network.nodes[0].publish(first)
        await asyncio.sleep(0.05)
        network.nodes[1].publish(second)
        await asyncio.sleep(0.05)
        network.stop()
        assert transport.handler_errors == 1
        for pid in set(range(n)) - {3}:
            assert sorted(delivered[pid]) == sorted([first.message_id, second.message_id])
        assert delivered[3] == ["raised", second.message_id]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The flood is the same flood
# ----------------------------------------------------------------------
SLOT_S = 0.0025
#: Jitter on, one surge window: every link's stream is drawn from.
FLOOD_MODEL = {
    "base_latency_s": 2 * SLOT_S,
    "jitter_s": 2 * SLOT_S,
    "seed": 11,
    "surges": (SurgeWindow(start_s=0.010, end_s=0.040, factor=6.0),),
}


def _reference_flood(topology, publishes, asleep_from):
    """Full flooding, replayed from the seeded link streams alone.

    Every first arrival *offers* the message to every neighbour but its
    source — no elision — drawing that link's next latency at the
    arrival's time; frames park in wheel slots and a slot's frames are
    processed in the order they were offered.  ``publishes`` is
    ``[(time, pid, key)]``; a pid in ``asleep_from`` ingests nothing
    sent to it from that time on.  Returns the predicted
    ``{(pid, key): first-arrival time}`` and the number of frames offered.
    """
    model = LinkLatencyModel(**FLOOD_MODEL)
    slots: dict[int, list[tuple[int, int, object]]] = {}
    seen = {pid: set() for pid in topology}
    first: dict[tuple[int, object], float] = {}
    offered = 0

    def arrive(at, dst, src, key):
        nonlocal offered
        if src is not None and at >= asleep_from.get(dst, math.inf):
            return
        if key in seen[dst]:
            return
        seen[dst].add(key)
        first[(dst, key)] = at
        for neighbor in topology[dst]:
            if neighbor != src:
                slot = math.ceil((at + model.latency(dst, neighbor, at)) / SLOT_S)
                slots.setdefault(slot, []).append((neighbor, dst, key))
                offered += 1

    publishes = sorted(publishes)
    while publishes or slots:
        slot = min(slots, default=None)
        if publishes and (slot is None or publishes[0][0] < slot * SLOT_S):
            at, pid, key = publishes.pop(0)
            arrive(at, pid, None, key)
        else:
            for dst, src, key in slots.pop(slot):
                arrive(slot * SLOT_S, dst, src, key)
    return first, offered


def test_every_first_arrival_lands_in_the_slot_full_flooding_predicts():
    """Elision removes frames, never a first arrival and never a draw: the
    real network on a virtual clock matches a reference flood written
    here — jitter on, through a surge, with the originator asleep."""
    n, degree = 12, 4
    topology = regular_topology(n, degree, seed=3)
    registry = KeyRegistry(n, run_seed=0)
    votes = {
        key: make_vote(registry, registry.secret_key(sender), round_number, None)
        for key, (sender, round_number) in {"m1": (0, 0), "m2": (5, 0), "m3": (9, 1)}.items()
    }
    keys = {vote.content_key: key for key, vote in votes.items()}

    async def scenario():
        loop = asyncio.get_running_loop()
        transport = SimTransport(n, slot_s=SLOT_S, **FLOOD_MODEL)
        arrivals: dict[tuple[int, str], float] = {}
        network = GossipNetwork(
            transport,
            topology,
            on_deliver=lambda pid, m: arrivals.setdefault(
                (pid, keys[m.content_key]), loop.time()
            ),
        )
        transport.start()
        publishes = []

        def publish(pid, key):
            publishes.append((loop.time(), pid, key))
            network.nodes[pid].publish(votes[key])

        publish(0, "m1")  # before the surge; the originator then sleeps
        network.nodes[0].stop()
        await asyncio.sleep(0.0131)  # inside the surge, off any slot boundary
        publish(5, "m2")
        await asyncio.sleep(0.0457)  # after it, while m2 is still in flight
        publish(9, "m3")
        await asyncio.sleep(1.0)
        assert transport.wheel.pending == 0
        network.stop()
        return arrivals, publishes, transport.sent_count

    arrivals, publishes, sent = run_virtual(scenario())
    predicted, offered = _reference_flood(topology, publishes, asleep_from={0: publishes[0][0]})
    assert arrivals == predicted
    # Everyone but the sleeping originator got everything, some of it late.
    assert len(arrivals) == 1 + 2 * (n - 1) + (n - 1)
    assert max(arrivals.values()) > 0.040
    # And the saving is real: the reference offered every frame, the
    # network built only those that could still be a first arrival.
    assert sent < offered


def test_one_shard_sends_each_message_once_per_overlay_edge():
    n, degree, messages = 12, 4, 5
    topology = regular_topology(n, degree, seed=1)
    edges = n * degree // 2
    registry = KeyRegistry(n, run_seed=0)

    async def scenario():
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.002, seed=4)
        network = GossipNetwork(transport, topology, on_deliver=lambda pid, m: None)
        transport.start()
        for sender in range(messages):
            network.nodes[sender].publish(
                make_vote(registry, registry.secret_key(sender), 0, None)
            )
        await asyncio.sleep(1.0)
        return transport.sent_count, network.stats_totals()

    sent, stats = run_virtual(scenario())
    assert sent == messages * edges
    assert stats["delivered"] == messages * n
    # A frame already in flight when its receiver hears the message
    # elsewhere still arrives, as the only duplicates left.
    assert stats["duplicates"] == messages * (edges - (n - 1))
    assert stats["seen_entries"] == messages


class _LoggedSim(SimTransport):
    """Records every frame built and every frame handed over."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.built: list[tuple[int, int, object]] = []
        self.handed: list[tuple[int, int, object]] = []

    def send_many(self, src, dsts, payload):
        dsts = tuple(dsts)
        self.built.extend((src, dst, payload) for dst in dsts)
        super().send_many(src, dsts, payload)

    def _deliver(self, dst, src, payload):
        self.handed.append((dst, src, payload))
        super()._deliver(dst, src, payload)


def test_across_two_shards_only_co_located_holders_are_skipped():
    """Two networks over one fabric (two shards, one seen index each): a
    forward to another shard's pid is always built — its seen set is not
    ours to read — and a digest a shard has evicted comes back across
    the boundary, is built, and is ``stale_dropped`` on arrival."""
    ring = {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}
    shard_a, shard_b = (0, 1), (2, 3)
    registry = KeyRegistry(4, run_seed=0)
    old = make_vote(registry, registry.secret_key(0), 2, None)
    new = make_vote(registry, registry.secret_key(0), 6, None)

    async def scenario():
        # Frames sent in the first 5 ms crawl (×100); later ones do not.
        crawl = SurgeWindow(start_s=0.0, end_s=0.005, factor=100.0)
        transport = _LoggedSim(4, base_latency_s=0.002, jitter_s=0.0, seed=0, surges=(crawl,))
        clock_a, clock_b = [2], [2]
        networks = [
            GossipNetwork(
                transport,
                {pid: ring[pid] for pid in shard},
                on_deliver=lambda pid, m: None,
                current_round=lambda clock=clock: clock[0],
                seen_horizon_rounds=3,
            )
            for shard, clock in ((shard_a, clock_a), (shard_b, clock_b))
        ]
        nodes = {pid: node for network in networks for pid, node in network.nodes.items()}
        transport.start()
        nodes[0].publish(old)  # 0→1 and 0→3 crawl for 200 ms
        await asyncio.sleep(0.010)
        # Shard A's clock moves on; its next admission evicts ``old``.
        clock_a[0] = 6
        nodes[0].publish(new)
        await asyncio.sleep(0.050)
        flood_of_new = [(src, dst) for src, dst, payload in transport.built if payload is new]
        assert len(networks[0].seen) == 1  # ``old`` is gone from shard A
        await asyncio.sleep(1.0)
        return transport, flood_of_new, {pid: dict(node.stats) for pid, node in nodes.items()}

    transport, flood_of_new, stats = run_virtual(scenario())
    # ``new``: 0 publishes to 1 and 3; 1 offers 2 (other shard: built);
    # 3 offers 2 (co-located, but 2 has not ingested yet: built); 2 then
    # hears it from one of them and owes the other a forward — to 1 it is
    # built (another shard's pid), to 3 it is skipped (a co-located holder).
    assert sorted(flood_of_new[:4]) == [(0, 1), (0, 3), (1, 2), (3, 2)]
    first_src_at_2 = next(src for dst, src, p in transport.handed if dst == 2 and p is new)
    assert flood_of_new[4:] == ([(2, 1)] if first_src_at_2 == 3 else [])
    # ``old``: its crawling frames arrive after shard A evicted it.  Node
    # 1 drops it as stale (the stale check precedes the seen index); in
    # shard B, whose clock lags, it is news — and 2's forward to 1 is
    # built although shard A once held the digest, then dropped there.
    built_old = [(src, dst) for src, dst, payload in transport.built if payload is old]
    assert built_old == [(0, 1), (0, 3), (3, 2), (2, 1)]
    assert stats[1]["stale_dropped"] == 2
    assert stats[2]["delivered"] == stats[3]["delivered"] == 2
    assert stats[0] == {"delivered": 2, "duplicates": 0, "stale_dropped": 0}
