"""Gossip overlay: flooding, deduplication, elision, sender-sleep survival."""

import asyncio
import hashlib
import math
import random

import pytest

from repro.attacks import AttackScript, drop, heal, partition, phase
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, SeenIndex, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.transport import LinkLatencyModel, SimTransport
from repro.runtime import worker
from repro.sleepy.messages import make_vote
from repro.workloads.transactions import SubmissionRateWorkload

from tests.net.conftest import ignore, run_virtual, tap_arrivals

#: The seen horizon of the tests here that never advance their round.
HORIZON = 10


def _network(transport, topology, horizon=HORIZON, on_admit=ignore):
    """A gossip network over ``topology`` with a fresh seen index."""
    return GossipNetwork(transport, topology, on_admit, SeenIndex(horizon))


def _tapped_network(transport, topology, delivered, field="message_id"):
    """A network whose nodes' first arrivals append ``message.<field>``
    to ``delivered[pid]``."""
    network = _network(transport, topology)
    tap_arrivals(network, lambda pid, src, m: delivered[pid].append(getattr(m, field)))
    return network


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
        network = _tapped_network(transport, regular_topology(n, degree, seed=0), delivered)
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
        network = _tapped_network(transport, regular_topology(n, 3, seed=0), delivered)
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
        topology = regular_topology(n, 3, seed=0)
        network = _tapped_network(transport, topology, delivered, "content_key")
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
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.0, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        network = _tapped_network(transport, regular_topology(n, 3, seed=0), delivered)
        transport.surge(10.0)
        asyncio.get_running_loop().call_later(0.25, transport.surge, 1.0)
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
        network = _network(transport, {0: ()}, horizon)
        node = network.nodes[0]
        votes = {}
        for r in range(rounds):
            network.seen.advance(r)
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


def test_a_raising_admission_does_not_stop_the_flood():
    """The admission callback raising costs its shard that message's
    admission only: the node's forwards were already offered, every node
    still gets the message, and the next message is admitted.  Two
    shards over one fabric, so the raise happens in a frame's handler."""

    async def scenario():
        n = 8
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.0, seed=0)
        topology = regular_topology(n, 3, seed=0)
        admitted: list = []

        def on_admit(message, key):
            if not admitted:
                admitted.append("raised")
                raise RuntimeError("consumer bug")
            admitted.append(message.message_id)

        near = _network(transport, {pid: topology[pid] for pid in range(4)})
        far = _network(transport, {pid: topology[pid] for pid in range(4, n)}, on_admit=on_admit)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        for network in (near, far):
            tap_arrivals(network, lambda pid, src, m: delivered[pid].append(m.message_id))
        first = make_vote(registry, registry.secret_key(0), 0, None)
        second = make_vote(registry, registry.secret_key(1), 0, None)
        near.nodes[0].publish(first)
        await asyncio.sleep(0.05)
        near.nodes[1].publish(second)
        await asyncio.sleep(0.05)
        near.stop()
        far.stop()
        assert transport.handler_errors == 1
        assert admitted == ["raised", second.message_id]
        for pid in range(n):
            assert sorted(delivered[pid]) == sorted([first.message_id, second.message_id])

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The flood is the same flood
# ----------------------------------------------------------------------
SLOT_S = 0.0025
#: Jitter on: every link's stream is drawn from.
FLOOD_MODEL = {"base_latency_s": 2 * SLOT_S, "jitter_s": 2 * SLOT_S, "seed": 11}
#: One surge, ``(start, end, factor)``: the flood sets the factor at
#: ``start`` and lifts it at ``end``.  Both instants lie off the slot grid
#: and off every publish, so no send shares an instant with an edge (a
#: tie the model leaves open: it is whichever timer the loop fires first).
FLOOD_SURGE = (0.0110, 0.0410, 6.0)


def _reference_flood(topology, publishes, asleep_from):
    """Full flooding, replayed from the seeded link streams alone.

    Every first arrival *offers* the message to every neighbour but its
    source — no elision — drawing that link's next latency at the
    arrival's time; frames park in wheel slots and a slot's frames are
    processed in the order they were offered.  ``publishes`` is
    ``[(time, pid, key)]``; a pid in ``asleep_from`` ingests nothing
    sent to it from that time on.  Returns each pid's predicted first
    arrivals, ``[(src, key, time)]`` in delivery order (``src`` is
    ``None`` for a publish), and the number of frames offered.
    """
    model = LinkLatencyModel(**FLOOD_MODEL)
    surge_start, surge_end, surge_factor = FLOOD_SURGE
    slots: dict[int, list[tuple[int, int, object]]] = {}
    sequences: dict[int, list[tuple[int | None, object, float]]] = {pid: [] for pid in topology}
    offered = 0

    def arrive(at, dst, src, key):
        nonlocal offered
        if src is not None and at >= asleep_from.get(dst, math.inf):
            return
        if any(seen == key for _, seen, _ in sequences[dst]):
            return
        sequences[dst].append((src, key, at))
        for neighbor in topology[dst]:
            if neighbor != src:
                model.factor = surge_factor if surge_start <= at < surge_end else 1.0
                slot = math.ceil((at + model.latency(dst, neighbor)) / SLOT_S)
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
    return sequences, offered


class _Tapped(SimTransport):
    """Lets a consumer read the source of the frame it is handling."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: pid -> source of the frame being handed over (``None``: none is).
        self.source: dict[int, int | None] = {}

    def subscribe(self, pid, handler):
        def tapped(src, payload):
            self.source[pid] = src
            try:
                handler(src, payload)
            finally:
                self.source[pid] = None

        super().subscribe(pid, tapped)


class _NeverSupersedes(_Tapped):
    """The fabric without the supersession rule: every frame sent is parked.

    Forgetting what is parked before each fan-out leaves nothing to be
    superseded by (gossip never offers one fan-out the same pid twice).
    """

    def send_many(self, src, dsts, payload, skip=0):
        self._forget_parked()
        super().send_many(src, dsts, payload, skip)
        assert self.superseded == 0


FLOOD_N, FLOOD_DEGREE = 12, 4
#: Round length of a proxied flood's attack script.
ROUND_S = 0.025


def _flood(fabric: type[SimTransport] = _Tapped, script: AttackScript | None = None):
    """Publish three votes into a 12-node overlay on a virtual clock —
    jitter on, through a surge, with the originator of the first asleep
    — optionally through a :class:`ProxyTransport` running ``script``.

    Returns each pid's deliveries ``[(src, key, time)]``, the publishes,
    the fabric, and the proxy's audit totals (``None`` without one).
    """
    n = FLOOD_N
    topology = regular_topology(n, FLOOD_DEGREE, seed=3)
    registry = KeyRegistry(n, run_seed=0)
    votes = {
        key: make_vote(registry, registry.secret_key(sender), round_number, None)
        for key, (sender, round_number) in {"m1": (0, 0), "m2": (5, 0), "m3": (9, 1)}.items()
    }
    keys = {vote.content_key: key for key, vote in votes.items()}

    async def scenario():
        loop = asyncio.get_running_loop()
        transport = fabric(n, slot_s=SLOT_S, **FLOOD_MODEL)
        proxy = None
        if script is not None:
            proxy = ProxyTransport(transport, script.timeline(), seed=5, base_latency_s=SLOT_S)
        sequences: dict[int, list[tuple[int | None, str, float]]] = {pid: [] for pid in range(n)}

        def arrived(pid, _src, message):
            sequences[pid].append(
                (transport.source.get(pid), keys[message.content_key], loop.time())
            )

        network = _network(proxy or transport, topology)
        tap_arrivals(network, arrived)
        # The flood's round loop: the script's phases and the surge are
        # set at their instants, as a shard's drive sets them.
        if proxy is not None:
            for state in proxy.timeline.states[1:]:
                loop.call_at(state.start * ROUND_S, proxy.enter_phase, state.index)
        start, end, factor = FLOOD_SURGE
        loop.call_at(start, transport.surge, factor)
        loop.call_at(end, transport.surge, 1.0)
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
        return sequences, publishes, transport, proxy and proxy.audit_totals()

    return run_virtual(scenario())


def test_every_first_arrival_lands_in_the_slot_full_flooding_predicts():
    """Elision removes frames, never a first arrival, its source, its
    order or a draw: every pid's deliveries on the real network match a
    reference flood written here."""
    sequences, publishes, transport, _ = _flood()
    topology = regular_topology(FLOOD_N, FLOOD_DEGREE, seed=3)
    predicted, offered = _reference_flood(topology, publishes, asleep_from={0: publishes[0][0]})
    assert sequences == predicted
    # Everyone but the sleeping originator got everything, some of it late.
    arrivals = [at for sequence in sequences.values() for _, _, at in sequence]
    assert len(arrivals) == 1 + 2 * (FLOOD_N - 1) + (FLOOD_N - 1)
    assert max(arrivals) > 0.040
    # And the saving is real: the reference offered every frame, the
    # network sent only those that could still be a first arrival, and
    # parked fewer still.
    assert transport.sent_count < offered
    assert transport.superseded > 0


def test_through_drops_and_a_partition_supersession_changes_no_delivery():
    """The same flood behind a proxy that drops frames, partitions the
    overlay and heals: the fabric with the rule delivers exactly what the
    fabric without it does — every source, key, order and instant."""
    script = AttackScript(
        name="lossy-split-heal",
        phases=(
            phase(2),  # m1 floods unhindered
            phase(1, partition(range(6), range(6, 12)), drop(None, None, 0.3)),  # m2, m3
            phase(1, heal()),
        ),
    )
    sequences, _, transport, audit = _flood(_Tapped, script)
    full, _, _, full_audit = _flood(_NeverSupersedes, script)
    assert sequences == full
    assert audit == full_audit
    assert audit["dropped"] > 0 and audit["partitioned"] > 0
    assert transport.superseded > 0
    # Some pid was reached through a held frame, after the heal.
    assert any(at > 3 * ROUND_S for sequence in sequences.values() for _, _, at in sequence)


def test_one_shard_sends_each_message_once_per_overlay_edge():
    n, degree, messages = 12, 4, 5
    topology = regular_topology(n, degree, seed=1)
    edges = n * degree // 2
    registry = KeyRegistry(n, run_seed=0)

    async def scenario():
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.002, seed=4)
        network = _network(transport, topology)
        for sender in range(messages):
            network.nodes[sender].publish(
                make_vote(registry, registry.secret_key(sender), 0, None)
            )
        await asyncio.sleep(1.0)
        return transport.sent_count, transport.superseded, network.stats_totals()

    sent, superseded, stats = run_virtual(scenario())
    assert sent == messages * edges
    assert stats["delivered"] == messages * n
    # Of the edges' frames, n - 1 per message are first arrivals.  Every
    # other one was sent while a copy of the same object was in flight to
    # its receiver, and here none of them would have landed first: all
    # are superseded, and none is ingested as a duplicate.
    assert superseded == messages * (edges - (n - 1))
    assert stats["duplicates"] == 0
    assert stats["seen_entries"] == messages


class _LoggedSim(SimTransport):
    """Records every frame built and every frame handed over."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.built: list[tuple[int, int, object]] = []
        self.handed: list[tuple[int, int, object]] = []

    def send_many(self, src, dsts, payload, skip=0):
        self.built.extend((src, dst, payload) for dst in dsts if not skip >> dst & 1)
        super().send_many(src, dsts, payload, skip)

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
        transport = _LoggedSim(4, base_latency_s=0.002, jitter_s=0.0, seed=0)
        networks = [
            _network(transport, {pid: ring[pid] for pid in shard}, horizon=3)
            for shard in (shard_a, shard_b)
        ]
        for network in networks:
            network.seen.advance(2)
        nodes = {pid: node for network in networks for pid, node in network.nodes.items()}
        # Frames sent in the first 5 ms crawl (×100); later ones do not.
        transport.surge(100.0)
        asyncio.get_running_loop().call_later(0.005, transport.surge, 1.0)
        nodes[0].publish(old)  # 0→1 and 0→3 crawl for 200 ms
        await asyncio.sleep(0.010)
        # Shard A moves on to round 6, which evicts ``old``.
        networks[0].seen.advance(6)
        nodes[0].publish(new)
        await asyncio.sleep(0.050)
        flood_of_new = [(src, dst) for src, dst, payload in transport.built if payload is new]
        assert len(networks[0].seen) == 1  # ``old`` is gone from shard A
        await asyncio.sleep(1.0)
        return transport, flood_of_new, {pid: dict(node.stats) for pid, node in nodes.items()}

    transport, flood_of_new, stats = run_virtual(scenario())
    # ``new``: 0 publishes to 1 and 3, which both offer it to 2 in one
    # slot (another shard's pid, and a co-located pid that has not
    # ingested it yet: both built).  1's frame is parked first, so 3's is
    # superseded; 2 hears it from 1 and owes a forward only to 3, a
    # co-located holder: skipped.
    assert flood_of_new == [(0, 1), (0, 3), (1, 2), (3, 2)]
    assert [src for dst, src, p in transport.handed if dst == 2 and p is new] == [1]
    assert transport.superseded == 1
    # ``old``: its crawling frames arrive after shard A evicted it.  Node
    # 1 drops it as stale (the stale check precedes the seen index); in
    # shard B, whose round lags, it is news — and 2's forward to 1 is
    # built although shard A once held the digest, then dropped there.
    built_old = [(src, dst) for src, dst, payload in transport.built if payload is old]
    assert built_old == [(0, 1), (0, 3), (3, 2), (2, 1)]
    assert stats[1]["stale_dropped"] == 2
    assert stats[2] == stats[3] == {"delivered": 2, "duplicates": 0, "stale_dropped": 0}
    assert stats[0] == {"delivered": 2, "duplicates": 0, "stale_dropped": 0}


@pytest.mark.parametrize(
    "seed, digest, timers",
    [
        (0, "e0f7730be9c9b7d5bea08b307ca924e4e2a2c5833c4047da909ae3ef94d22bd1", 217),
        (1, "fb89caea863a10a2b7c3565cf253d3e6dc5667171a7d0fb16c73dede3552fb59", 229),
    ],
)
def test_a_superseded_frame_keeps_its_slot_armed(seed, digest, timers, monkeypatch):
    """A deployment with jitter and a surge decides what it decided before
    supersession existed, on exactly the loop timers it armed then (both
    recorded without the rule): a frame not parked still arms its slot,
    so a loop clock that advances timer by timer reads the same instants."""
    spec = RunSpec(
        n=8,
        rounds=20,
        eta=4,
        seed=seed,
        conditions=NetworkConditions(periods=(AsyncPeriod(8, 2),)),
        transactions=SubmissionRateWorkload(3, seed=seed),
    )
    fabrics = []
    build = worker._fabric

    def keeping(config):
        fabrics.append(build(config))
        return fabrics[-1]

    # The one-process deployment, keeping a handle on its fabric.
    monkeypatch.setattr(worker, "_fabric", keeping)
    result = run_virtual(DeploymentBackend(processes=1, delta_s=0.04).execute_async(spec))
    [fabric] = fabrics
    assert isinstance(fabric, SimTransport)
    rows = sorted((d.pid, d.round, d.view, d.tip or "") for d in result.trace.decisions)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    assert fabric.wheel.timers_created == timers
    # Also recorded without the rule: 3,712 frames sent, 1,856 first
    # arrivals and 2,088 duplicates.  The rule turns most duplicates into
    # superseded frames and adds no other kind.
    gossip, superseded = result.extras["gossip"], result.extras["transport"]["superseded"]
    assert fabric.sent_count == 3712
    assert gossip["delivered"] == 1856
    assert gossip["duplicates"] + superseded == 2088
    assert superseded > 10 * gossip["duplicates"]
