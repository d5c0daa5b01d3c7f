"""Gossip overlay: the computed flood, deduplication, sender-sleep survival."""

import asyncio
import hashlib
import math
import random

import pytest

from repro.attacks import AttackScript, drop, heal, partition, phase, surge
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.net.gossip import Arrivals, GossipNetwork, SeenIndex, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.transport import LinkLatencyModel, PushDelivery, SimTransport, draw_key
from repro.runtime import worker
from repro.runtime.clock import RoundClock
from repro.sleepy.messages import VoteMessage, make_vote
from repro.workloads.transactions import SubmissionRateWorkload

from tests.net.conftest import (
    NoLinks,
    StillClock,
    ignore,
    no_surge,
    run_virtual,
    tap_arrivals,
)

#: The seen horizon of the tests here that never advance their round.
HORIZON = 10


def _started_clock(delta_s=0.01):
    """A round clock whose round 0 begins now."""
    clock = RoundClock(delta_s)
    clock.start()
    return clock


def _network(
    transport, topology, clock, horizon=HORIZON, on_admit=ignore, surge_factor=no_surge, proxy=None
):
    """A gossip network over ``topology`` with a fresh seen index."""
    return GossipNetwork(
        transport, topology, on_admit, SeenIndex(horizon), clock, surge_factor, proxy
    )


def _tapped_network(transport, topology, delivered, **kwargs):
    """A network whose nodes' first arrivals append the message's
    ``content_key`` to ``delivered[pid]``."""
    network = _network(transport, topology, _started_clock(), **kwargs)
    tap_arrivals(network, lambda pid, m, _at: delivered[pid].append(m.content_key))
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
        await asyncio.sleep(1.0)  # >> diameter · latency
        network.catch_up()
        network.stop()
        return delivered, vote

    return run_virtual(scenario())


def test_published_message_floods_every_node():
    delivered, vote = _flood_scenario(n=12, degree=3)
    for pid in range(12):
        assert delivered[pid] == [vote.content_key]


def test_each_node_delivers_each_message_exactly_once():
    delivered, vote = _flood_scenario(n=8, degree=4)
    for messages in delivered.values():
        assert messages.count(vote.content_key) == 1


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
        # The publisher stops at once: it relayed at its own instant, and
        # the rest of the overlay finishes the flood.
        network.nodes[0].stop()
        await asyncio.sleep(1.0)
        network.catch_up()
        network.stop()
        return delivered, vote

    delivered, vote = run_virtual(scenario())
    for pid in range(10):
        assert vote.content_key in delivered[pid]


def test_transplanted_signature_cannot_censor_honest_message():
    """Regression for the headline dedup bug: front-running an honest
    message with a near copy must not suppress the honest original.

    The adversary floods a junk message that carries the honest
    message's signature under another claimed sender.  Dedup keys by
    content, so the two messages have different keys and both flood.
    """

    async def scenario():
        n = 10
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.001, jitter_s=0.0, seed=0)
        delivered: dict[int, list] = {pid: [] for pid in range(n)}
        topology = regular_topology(n, 3, seed=0)
        network = _tapped_network(transport, topology, delivered)
        honest = make_vote(registry, registry.secret_key(0), 0, None)
        # The honest signature, claimed by another sender: what an
        # adversary controls on objects it constructs.
        junk = VoteMessage(sender=1, round=0, signature=honest.signature, tip=None)
        assert junk.content_key != honest.content_key
        network.nodes[1].publish(junk)
        await asyncio.sleep(0.05)
        network.nodes[0].publish(honest)
        await asyncio.sleep(1.0)
        network.catch_up()
        network.stop()
        return delivered, honest

    delivered, honest = run_virtual(scenario())
    honest_key = honest.content_key
    for pid in range(10):
        assert honest_key in delivered[pid], f"node {pid} censored the honest message"


def test_dissemination_survives_sleeping_originator_during_surge():
    """§2.1 end to end: the originator publishes, goes to sleep
    immediately, and a latency surge is in force — the message is
    delayed, never lost, and still reaches every other node, each hop
    ten times slower."""

    async def scenario():
        n = 10
        registry = KeyRegistry(n, run_seed=0)
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.0, seed=0, slot_s=0.001)
        arrivals: dict[int, float] = {}
        network = _network(
            transport, regular_topology(n, 3, seed=0), RoundClock(0.1), surge_factor=lambda r: 10.0
        )
        network.clock.start_at(0.0)
        tap_arrivals(network, lambda pid, _m, at: arrivals.setdefault(pid, at))
        vote = make_vote(registry, registry.secret_key(0), 0, None)
        network.nodes[0].publish(vote)
        network.nodes[0].stop()
        await asyncio.sleep(10.0)
        network.catch_up()
        network.stop()
        return arrivals

    arrivals = run_virtual(scenario())
    assert sorted(arrivals) == list(range(10))
    # Every hop takes 10 × 2 ms on the 1 ms slot grid.
    assert all(round(at / 0.020, 6).is_integer() for at in arrivals.values())
    assert max(arrivals.values()) >= 2 * 0.020


def test_seen_set_is_bounded_by_the_expiry_horizon():
    """Soak-lane memory: dedup entries are evicted once older than the
    horizon, and re-arrivals of evicted (stale) messages are dropped —
    counted, never re-flooded."""
    horizon = 3
    senders = 4
    rounds = 50
    registry = KeyRegistry(senders, run_seed=0)
    network = _network(NoLinks((0,)), {0: ()}, StillClock(), horizon)
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


# ----------------------------------------------------------------------
# Two shards in one process
# ----------------------------------------------------------------------
class _MeshShard(PushDelivery):
    """One shard of a fabric split over processes, in one process: an
    announcement reaches every other shard's listener on the loop's next
    turn, or ``delay`` seconds later, as the socket reader of
    :class:`~repro.net.socket_transport.SocketTransport` hands over each
    decoded entry."""

    def __init__(self, n, hosted, slot_s, links, delay=0.0) -> None:
        super().__init__(n, hosted, slot_s, links)
        self.peers: list[_MeshShard] = []
        self.delay = delay
        #: ``(pid, elapsed, message)`` of every announcement, once per peer.
        self.crossed: list[tuple[int, float, object]] = []

    def announce(self, pid, elapsed, message):
        loop = asyncio.get_running_loop()
        for peer in self.peers:
            self.crossed.append((pid, elapsed, message))
            self.sent_count += 1
            loop.call_later(self.delay, peer._hand_over, pid, elapsed, message)


def _mesh(n, shards, slot_s, model, delay=0.0):
    """One :class:`_MeshShard` per pid tuple of ``shards``, each with its
    own link model built from ``model``, each the others' peer."""
    fabrics = [
        _MeshShard(n, hosted, slot_s, LinkLatencyModel(**model), delay) for hosted in shards
    ]
    for fabric in fabrics:
        fabric.peers = [peer for peer in fabrics if peer is not fabric]
    return fabrics


def test_a_raising_admission_does_not_stop_the_flood():
    """The admission callback raising costs its shard that message's
    admission only: the shard's arrivals were already computed, every
    node still gets the message, and the next message is admitted.  Two
    shards, so the raise happens in the listener of an announcement."""

    async def scenario():
        n = 8
        registry = KeyRegistry(n, run_seed=0)
        topology = regular_topology(n, 3, seed=0)
        model = {"base_latency_s": 0.001, "jitter_s": 0.0, "seed": 0}
        near_fabric, far_fabric = _mesh(n, ((0, 1, 2, 3), (4, 5, 6, 7)), 0.001, model)
        admitted: list = []

        def on_admit(message, key):
            if not admitted:
                admitted.append("raised")
                raise RuntimeError("consumer bug")
            admitted.append(message.content_key)

        clock = _started_clock()
        near = _network(near_fabric, topology, clock)
        far = _network(far_fabric, topology, clock, on_admit=on_admit)
        delivered: dict[int, set] = {pid: set() for pid in range(n)}
        for network in (near, far):
            tap_arrivals(network, lambda pid, m, _at: delivered[pid].add(m.content_key))
        first = make_vote(registry, registry.secret_key(0), 0, None)
        second = make_vote(registry, registry.secret_key(1), 0, None)
        near.nodes[0].publish(first)
        await asyncio.sleep(0.05)
        near.nodes[1].publish(second)
        await asyncio.sleep(0.05)
        near.stop()
        far.stop()
        assert far_fabric.handler_errors == 1
        assert admitted == ["raised", second.content_key]
        for pid in range(n):
            assert delivered[pid] == {first.content_key, second.content_key}

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The flood is the same flood
# ----------------------------------------------------------------------
SLOT_S = 0.0025
#: Jitter on: every link's draw is used.
FLOOD_MODEL = {"base_latency_s": 2 * SLOT_S, "jitter_s": 2 * SLOT_S, "seed": 11}
FLOOD_N, FLOOD_DEGREE = 12, 4
FLOOD_TOPOLOGY = regular_topology(FLOOD_N, FLOOD_DEGREE, seed=3)
#: δ = 10 ms, so Δ = 30 ms; round 0 begins off the slot grid, so no
#: arrival shares an instant with a round's edge.
FLOOD_DELTA_S = 0.01
FLOOD_ORIGIN = 0.0007
FLOOD_HORIZON = 3
FLOOD_ROUNDS = 12
_FLOOD_REGISTRY = KeyRegistry(FLOOD_N, run_seed=0)
#: ``(round, offset into it, publisher, message round)`` of each publish.
FLOOD_PUBLISHES = ((0, 0.0011, 0, 0), (1, 0.0013, 5, 1), (3, 0.0021, 9, 3), (3, 0.0151, 2, 3))


def _flood_clock(delta_s: float = FLOOD_DELTA_S) -> RoundClock:
    clock = RoundClock(delta_s)
    clock.start_at(FLOOD_ORIGIN)
    return clock


def _flood_publishes(publishes=FLOOD_PUBLISHES, delta_s=FLOOD_DELTA_S):
    """``[(instant, pid, message)]`` of the flood's publishes, in time order."""
    clock = _flood_clock(delta_s)
    return [
        (
            clock.instant(r) + offset,
            pid,
            make_vote(_FLOOD_REGISTRY, _FLOOD_REGISTRY.secret_key(pid), message_round, None),
        )
        for r, offset, pid, message_round in publishes
    ]


def _surge_rounds_1_to_2(r: int) -> float:
    return 6.0 if r in (1, 2) else 1.0


#: A neighbour of round 0's publisher, stopped 1 ms after that publish:
#: after the frame to it is computed, before it arrives (a hop takes at
#: least the 5 ms base latency).
_STOPPED_MID_FLIGHT = {min(FLOOD_TOPOLOGY[0]): FLOOD_ORIGIN + 0.0011 + 0.001}

#: name -> (surge schedule, attack script or None, stopped pids, or
#: stopped pid -> the instant it stops at).
FLOOD_CASES = {
    "surge": (_surge_rounds_1_to_2, None, ()),
    "partition-and-drops": (
        no_surge,
        AttackScript(
            name="lossy-split-heal",
            phases=(
                phase(1),
                phase(1, partition(range(6), range(6, 12)), drop(None, None, 0.3)),
                phase(2, heal(), surge(4.0, links=[(0, 1), (5, 4), (9, 7), (2, 7)])),
            ),
        ),
        (),
    ),
    "partition-past-the-horizon": (
        no_surge,
        AttackScript(
            name="long-split",
            phases=(phase(1), phase(6, partition(range(6), range(6, 12))), phase(1, heal())),
        ),
        (),
    ),
    "partition-into-a-surge": (
        no_surge,
        AttackScript(
            name="split-into-surge",
            phases=(
                phase(1),
                phase(1, partition(range(6), range(6, 12))),
                phase(1, heal(), surge(6.0)),
            ),
        ),
        (),
    ),
    "partition-into-a-drop": (
        no_surge,
        AttackScript(
            name="split-into-loss",
            phases=(
                phase(1),
                phase(1, partition(range(6), range(6, 12))),
                phase(1, heal(), drop(None, None, 1.0)),
            ),
        ),
        (),
    ),
    "stopped-node": (_surge_rounds_1_to_2, None, (3,)),
    "stopped-mid-flight": (_surge_rounds_1_to_2, None, _STOPPED_MID_FLIGHT),
}


def _reference_flood(surge_factor, script, stopped, delta_s=FLOOD_DELTA_S, publishes=None):
    """Full flooding, frame by frame, from the same stateless draws.

    Every first arrival at a live node offers the message to every
    neighbour but its source at that instant, through the script's
    ``fate`` when there is one; a frame's delay is its draw times the
    surge factor of the round holding the instant it starts crossing
    times the script's factor on the link then.  Frames park in slots
    and a slot's frames are processed in the order they were offered.  An arrival in a round
    whose seen floor is above the message's round is no arrival.
    ``stopped`` holds the pids stopped from the start, or maps each
    stopped pid to the instant it stops at.  Rounds are ``3 · delta_s``
    long, and ``publishes`` defaults to :func:`_flood_publishes`'s.
    Returns ``{content key: {pid: first-arrival instant}}``.
    """
    round_at = _flood_clock(delta_s).round_at
    stops = stopped if isinstance(stopped, dict) else dict.fromkeys(stopped, -math.inf)
    fabric = SimTransport(FLOOD_N, slot_s=SLOT_S, **FLOOD_MODEL)
    model = fabric.links
    model.enumerate(FLOOD_TOPOLOGY)
    fate = None
    if script is not None:
        fate = ProxyTransport(
            script.timeline(), clock=_flood_clock(delta_s), links=model, hosted=fabric.hosted
        ).fate
    slots: dict[int, list] = {}
    first: dict[tuple, dict[int, float]] = {}
    tossed: dict[tuple, Arrivals] = {}

    def arrive(at, dst, src, message):
        key = message.content_key
        if at >= stops.get(dst, math.inf) or dst in first.setdefault(key, {}):
            return
        if round_at(at) > message.round + FLOOD_HORIZON:
            return
        first[key][dst] = at
        draws = model.delays(model.draw(draw_key(message)))
        coins = tossed.setdefault(key, Arrivals())  # where the proxy keeps its coins
        for peer in FLOOD_TOPOLOGY[dst]:
            if peer == src:
                continue
            crossing = (at, 1.0) if fate is None else fate(dst, peer, at, message, coins)
            if crossing is None:
                continue
            sent, stretch = crossing
            scale = surge_factor(round_at(sent)) * stretch
            slot = math.ceil((sent + draws[model.edges[(dst, peer)]] * scale) / SLOT_S)
            slots.setdefault(slot, []).append((peer, dst, message))

    publishes = publishes if publishes is not None else _flood_publishes()
    while publishes or slots:
        slot = min(slots, default=None)
        if publishes and (slot is None or publishes[0][0] < slot * SLOT_S):
            at, pid, message = publishes.pop(0)
            arrive(at, pid, None, message)
        else:
            for dst, src, message in slots.pop(slot):
                arrive(slot * SLOT_S, dst, src, message)
    return first


def _computed_flood(shards, surge_factor, script, stopped):
    """The flood on ``shards`` (pid tuples) of one virtual-clock process,
    each shard a network over its own fabric, link model and round
    clock: ``{content key: {pid: first-arrival instant}}`` as the shards
    filed it, the announcements that crossed between shards, the audit
    totals and each shard's gossip totals."""

    async def scenario():
        loop = asyncio.get_running_loop()
        fabrics = _mesh(FLOOD_N, shards, SLOT_S, FLOOD_MODEL)
        filed: dict[tuple, dict[int, float]] = {}

        def file_arrival(pid, message, at):
            filed.setdefault(message.content_key, {})[pid] = at

        proxies, networks, owner = [], [], {}
        for fabric in fabrics:
            clock = RoundClock(FLOOD_DELTA_S)
            clock.start_at(FLOOD_ORIGIN)
            proxy = None
            if script is not None:
                proxy = ProxyTransport(
                    script.timeline(), clock=clock, links=fabric.links, hosted=fabric.hosted
                )
                proxies.append(proxy)
            network = _network(
                fabric, FLOOD_TOPOLOGY, clock, FLOOD_HORIZON, surge_factor=surge_factor, proxy=proxy
            )
            tap_arrivals(network, file_arrival)
            networks.append(network)
            owner.update(network.nodes)
        stops = stopped if isinstance(stopped, dict) else dict.fromkeys(stopped)
        for pid, at in stops.items():
            if at is None:
                owner[pid].stop()
            else:
                loop.call_at(at, owner[pid].stop)
        for at, pid, message in _flood_publishes():
            loop.call_at(at, owner[pid].publish, message)
        await asyncio.sleep(FLOOD_ORIGIN + FLOOD_ROUNDS * 3 * FLOOD_DELTA_S)
        for network in networks:
            network.catch_up()
        assert all(fabric.wheel.pending == 0 for fabric in fabrics)
        audit = {}
        for proxy in proxies:
            for name, count in proxy.audit_totals().items():
                audit[name] = audit.get(name, 0) + count
        crossed = [frame for fabric in fabrics for frame in fabric.crossed]
        return filed, crossed, audit, [network.stats_totals() for network in networks]

    return run_virtual(scenario())


@pytest.mark.parametrize("case", FLOOD_CASES, ids=FLOOD_CASES.keys())
def test_every_first_arrival_lands_in_the_slot_full_flooding_predicts(case):
    """One shard, two shards, and full flooding frame by frame on the
    same draws: every hosted node's first-arrival slot is the same."""
    surge_factor, script, stopped = FLOOD_CASES[case]
    predicted = _reference_flood(surge_factor, script, stopped)
    one, crossed, one_audit, _ = _computed_flood(
        (tuple(range(FLOOD_N)),), surge_factor, script, stopped
    )
    two, crossed_two, two_audit, _ = _computed_flood(
        (tuple(range(FLOOD_N // 2)), tuple(range(FLOOD_N // 2, FLOOD_N))),
        surge_factor,
        script,
        stopped,
    )
    predicted = {key: pids for key, pids in predicted.items() if pids}
    assert one == predicted
    assert two == predicted
    # Each shard audits the links its own nodes send on, so the audits
    # summed over the shards are the one shard's.
    assert one_audit == two_audit
    # A message crosses to the other shard once, at publish, and so
    # does each stop.
    assert crossed == []
    bodies = [message for _, _, message in crossed_two if message is not None]
    assert sorted(m.content_key for m in bodies) == sorted(
        m.content_key for _, _, m in _flood_publishes()
    )
    assert sorted(pid for pid, _, message in crossed_two if message is None) == sorted(stopped)
    # What each case exercises shows in what it predicts.
    reached = [len(pids) for pids in predicted.values()]
    live = FLOOD_N - len(stopped)
    if case == "surge":
        assert reached == [live] * len(FLOOD_PUBLISHES)
        assert max(at for pids in predicted.values() for at in pids.values()) > (
            FLOOD_ORIGIN + 3 * 3 * FLOOD_DELTA_S
        )
    elif case.startswith("stopped"):
        assert reached == [live] * len(FLOOD_PUBLISHES)
        assert all(pid not in pids for pid in stopped for pids in predicted.values())
    elif case == "partition-past-the-horizon":
        # Published in rounds 1 and 3, held until round 7, past their
        # horizons (rounds 4 and 6): the far side drops them as stale,
        # and never relays them.
        assert reached[0] == FLOOD_N
        assert reached[1:] == [FLOOD_N // 2] * 3
        assert one_audit["partitioned"] > 0
    elif case == "partition-into-a-surge":
        # Round 1's message, published on the left, crosses to the right
        # when round 2 releases it, and round 2's surge stretches every
        # draw sixfold: no right pid holds it before a stretched hop.
        released = _flood_clock().instant(2)
        right = predicted[_flood_publishes()[1][2].content_key]
        assert len(right) == FLOOD_N
        assert min(at for pid, at in right.items() if pid >= 6) >= (
            released + 6 * FLOOD_MODEL["base_latency_s"]
        )
        assert one_audit["partitioned"] > 0 and one_audit["delayed"] > 0
    elif case == "partition-into-a-drop":
        # Round 1's message, published on the left, is held at the cut
        # until round 2, whose drop tosses every link's coin at p = 1:
        # the release loses it, so no right pid ever holds it.
        right = predicted[_flood_publishes()[1][2].content_key]
        assert right and all(pid < 6 for pid in right)
        assert one_audit["partitioned"] > 0 and one_audit["dropped"] > 0
    else:
        assert one_audit["dropped"] > 0 and one_audit["partitioned"] > 0
        assert one_audit["delayed"] > 0
        # Redundant paths route around the lost frames.
        assert reached == [FLOOD_N] * len(FLOOD_PUBLISHES)


def test_a_script_surge_stretches_a_draw_as_a_period_of_its_factor_does():
    """One law: a script's ``surge(6.0)`` over rounds 1-2 and a period of
    factor 6 over the same rounds file every first arrival in the same
    slot — a publisher's neighbour at ``ceil((t + draw · 6) / slot_s) ·
    slot_s``."""
    one_shard = (tuple(range(FLOOD_N)),)
    script = AttackScript(name="surge", phases=(phase(1), phase(2, surge(6.0))))
    scripted, _, audit, _ = _computed_flood(one_shard, no_surge, script, ())
    period, *_ = _computed_flood(one_shard, _surge_rounds_1_to_2, None, ())
    assert scripted == period and audit["delayed"] > 0
    t, pid, message = _flood_publishes()[1]  # round 1's
    model = LinkLatencyModel(**FLOOD_MODEL)
    model.enumerate(FLOOD_TOPOLOGY)
    draws = model.delays(model.draw(draw_key(message)))
    for peer in FLOOD_TOPOLOGY[pid]:
        slot = math.ceil((t + draws[model.edges[(pid, peer)]] * 6.0) / SLOT_S) * SLOT_S
        assert scripted[message.content_key][peer] == slot


def test_a_shard_tosses_each_messages_drop_coins_once():
    """Under a drop op from round 1 on, each shard tosses a message's drop
    coins once while its flood is in flight, however the frames of
    floods that overlap settle (round 3's two floods do), and drops
    what full flooding drops.  Round 0 is calm: its flood tosses none."""
    script = AttackScript(
        name="lossy", phases=(phase(1), phase(FLOOD_ROUNDS, drop(None, None, 0.3)))
    )
    predicted = {key: pids for key, pids in _reference_flood(no_surge, script, ()).items() if pids}
    lossy = len(FLOOD_PUBLISHES) - 1
    for shards in ((tuple(range(FLOOD_N)),), (tuple(range(6)), tuple(range(6, FLOOD_N)))):
        filed, _, audit, totals = _computed_flood(shards, no_surge, script, ())
        assert filed == predicted
        assert audit["dropped"] > 0
        assert [shard["coin_digests"] for shard in totals] == [lossy] * len(shards)


#: δ = 40 ms, so Δ = 120 ms: a calm flood (hops of at most 12.5 ms) ends
#: well inside the round it enters, while a hop of round 1 or 2's surge
#: (× 6) takes longer than a round.
SUMMARY_DELTA_S = 0.04
#: A calm round; a surged one; a calm round in which the second publish
#: falls inside the first one's flood; a publish that another node
#: publishes again inside its flood (:data:`SUMMARY_REPUBLISH`); a
#: publish whose flood a node's stop falls inside.
SUMMARY_PUBLISHES = (
    (0, 0.0011, 0, 0),
    (1, 0.0013, 5, 1),
    (3, 0.0021, 9, 3),
    (3, 0.0151, 2, 3),
    (4, 0.0011, 6, 4),
    (5, 0.0011, 4, 5),
)
#: Round 4's message is published again at pid 8, 2 ms after it entered.
SUMMARY_REPUBLISH = (0.002, 8)
#: The node stopped in round 5, 1 ms after its publish, before that
#: flood's second arrival.
SUMMARY_STOP_OFFSET = 0.0021


def test_a_flood_filed_whole_shows_every_reader_what_full_flooding_files():
    """One shard read at round starts and receive instants, as a
    deployment's round loop reads it, and after each publish and the
    stop, against full flooding frame by frame: at each of those
    instants every node holds what the twin has reached it by then and
    has counted as many first arrivals.  The calm floods are filed
    whole; the surged one is computed node by node; a publish inside a
    flood filed whole, a second entry of its message and a stop inside
    it have it computed node by node from its entry."""
    clock = _flood_clock(SUMMARY_DELTA_S)
    publishes = _flood_publishes(SUMMARY_PUBLISHES, SUMMARY_DELTA_S)
    keys = [message.content_key for _, _, message in publishes]
    stop_round, _, entry, _ = SUMMARY_PUBLISHES[5]
    stopped = min(set(range(FLOOD_N)) - {entry, *FLOOD_TOPOLOGY[entry]})
    stop_at = clock.instant(stop_round) + SUMMARY_STOP_OFFSET
    after, again = SUMMARY_REPUBLISH
    at, _, message = publishes[4]
    publishes.insert(5, (at + after, again, message))
    predicted = _reference_flood(
        _surge_rounds_1_to_2,
        None,
        {stopped: stop_at},
        delta_s=SUMMARY_DELTA_S,
        publishes=list(publishes),
    )

    async def scenario():
        loop = asyncio.get_running_loop()
        fabric = SimTransport(FLOOD_N, slot_s=SLOT_S, **FLOOD_MODEL)
        network = _network(
            fabric,
            FLOOD_TOPOLOGY,
            _flood_clock(SUMMARY_DELTA_S),
            FLOOD_HORIZON,
            surge_factor=_surge_rounds_1_to_2,
        )
        index = network.seen.arrivals
        readings = []

        def read():
            at = network.catch_up()
            held = {key: index[key].held for key in keys if key in index}
            delivered = {pid: node.stats["delivered"] for pid, node in network.nodes.items()}
            readings.append((at, held, delivered, network.summarised))

        def publish(pid, message):
            network.nodes[pid].publish(message)
            read()

        def stop():
            # Round 5's flood is filed whole and still pending.
            assert index[keys[5]].summary is not None
            network.nodes[stopped].stop()
            read()

        for at, pid, message in publishes:
            loop.call_at(at, publish, pid, message)
        loop.call_at(stop_at, stop)
        for r in range(7):
            loop.call_at(clock.instant(r), read)
            loop.call_at(clock.instant(r) + 0.9 * clock.round_s, read)
        await asyncio.sleep(clock.instant(7))
        return readings, network.stats_totals()

    readings, totals = run_virtual(scenario())
    for at, held, delivered, _ in readings:
        expected_held = {
            key: sum(1 << pid for pid, first in predicted[key].items() if first <= at)
            for key in held
        }
        assert held == expected_held, at
        expected_delivered = {
            pid: sum(1 for key in keys if predicted[key].get(pid, math.inf) <= at)
            for pid in range(FLOOD_N)
        }
        assert delivered == expected_delivered, at
    # Round 0's flood is filed whole, and settled by its receive instant.
    assert [summarised for *_, summarised in readings[:3]] == [0, 0, 1]
    # Round 3's first flood is computed from its entry once the second
    # publish falls inside it, which is filed whole; round 4's is
    # computed from its entry at its second entry, round 5's at the stop.
    assert totals["summarised"] == 2
    assert totals["delivered"] == 6 * FLOOD_N - 1 and totals["stale_dropped"] == 0
    assert len(predicted[keys[5]]) == FLOOD_N - 1
    # The surged round's flood runs past the round it entered.
    assert max(predicted[keys[1]].values()) > clock.instant(2)


def test_two_shards_each_file_a_calm_flood_whole():
    """A calm flood is filed whole in the shard it is published in and in
    the shard it is announced to, and each settles it in one step: its
    own nodes held and counted once, the other's pids relayed."""
    halves = (tuple(range(FLOOD_N // 2)), tuple(range(FLOOD_N // 2, FLOOD_N)))
    at, pid, message = _flood_publishes(SUMMARY_PUBLISHES[:1], SUMMARY_DELTA_S)[0]

    async def scenario():
        loop = asyncio.get_running_loop()
        fabrics = _mesh(FLOOD_N, halves, SLOT_S, FLOOD_MODEL)
        networks = [
            _network(fabric, FLOOD_TOPOLOGY, _flood_clock(SUMMARY_DELTA_S), FLOOD_HORIZON)
            for fabric in fabrics
        ]
        loop.call_at(at, networks[0].nodes[pid].publish, message)
        await asyncio.sleep(at + 0.9 * 3 * SUMMARY_DELTA_S)
        for network in networks:
            network.catch_up()
        return networks

    networks = run_virtual(scenario())
    masks = [sum(1 << p for p in half) for half in halves]
    for network, own, other in zip(networks, masks, reversed(masks)):
        arrivals = network.seen.arrivals[message.content_key]
        assert network.summarised == 1
        assert (arrivals.held, arrivals.relayed) == (own, other)
        assert network.stats_totals()["delivered"] == FLOOD_N // 2


def test_one_shard_parks_no_frame_and_arms_no_timer():
    """A shard hosting every pid computes its nodes' arrivals: nothing is
    sent, nothing waits on the wheel, and every node is reached once.
    Each calm flood is filed whole, and settled so, without drawing its
    links."""
    n, messages = 12, 5
    topology = regular_topology(n, 4, seed=1)
    registry = KeyRegistry(n, run_seed=0)

    async def scenario():
        transport = SimTransport(n, base_latency_s=0.002, jitter_s=0.002, seed=4)
        network = _network(transport, topology, _started_clock())
        for sender in range(messages):
            network.nodes[sender].publish(
                make_vote(registry, registry.secret_key(sender), 0, None)
            )
        await asyncio.sleep(1.0)
        network.catch_up()
        return transport, network.stats_totals()

    transport, stats = run_virtual(scenario())
    assert transport.sent_count == transport.wheel.timers_created == 0
    assert stats["delivered"] == messages * n
    assert stats["duplicates"] == 0
    assert stats["seen_entries"] == messages
    assert stats["summarised"] == messages
    assert stats["draw_digests"] == stats["coin_digests"] == 0


class _Offers(SimTransport):
    """A fabric and a link law that passes every frame and records each
    offer as ``(src, dst, content key)``; no round is calm, so the flood
    asks ``fate`` of every offer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offers: list[tuple[int, int, tuple]] = []

    def fate(self, src, dst, t, message, arrivals):
        self.offers.append((src, dst, message.content_key))
        return t, 1.0

    def calm(self, r):
        return False


def test_one_shard_sends_each_message_once_per_overlay_edge():
    """Full flooding offers a message once on every directed overlay edge
    but the one each node heard it on: n·d − (n − 1) offers per message,
    none twice, all asked of ``fate`` at one shard as at any."""
    n, degree, messages = 12, 4, 5
    topology = regular_topology(n, degree, seed=1)
    registry = KeyRegistry(n, run_seed=0)

    async def scenario():
        transport = _Offers(n, base_latency_s=0.002, jitter_s=0.002, seed=4)
        network = _network(transport, topology, _started_clock(), proxy=transport)
        for sender in range(messages):
            network.nodes[sender].publish(
                make_vote(registry, registry.secret_key(sender), 0, None)
            )
        await asyncio.sleep(1.0)
        network.catch_up()
        return transport, network.stats_totals()

    transport, stats = run_virtual(scenario())
    offers = transport.offers
    assert len(offers) == len(set(offers)) == messages * (n * degree - (n - 1))
    assert {(src, dst) for src, dst, _ in offers} <= set(transport.links.edges)
    assert transport.sent_count == 0
    assert stats["delivered"] == messages * n
    assert stats["duplicates"] == 0


def test_a_forgotten_flood_filed_whole_drops_what_it_would_have_computed():
    """A calm flood filed whole that the seen index forgets before any
    reader opens it still computes its entry's frames, from a draw it
    does not keep, and drops each as stale where it lands: read along
    the way, it files the same arrivals and the same ``stale_dropped`` as
    the flood computed node by node (under a link law that calls no
    round calm), and draws once, as that flood does."""
    clock = _flood_clock(SUMMARY_DELTA_S)
    at, entry, message = _flood_publishes(SUMMARY_PUBLISHES[:1], SUMMARY_DELTA_S)[0]

    def flood(never_calm):
        async def scenario():
            loop = asyncio.get_running_loop()
            fabric = (_Offers if never_calm else SimTransport)(
                FLOOD_N, slot_s=SLOT_S, **FLOOD_MODEL
            )
            network = _network(
                fabric,
                FLOOD_TOPOLOGY,
                _flood_clock(SUMMARY_DELTA_S),
                FLOOD_HORIZON,
                proxy=fabric if never_calm else None,
            )
            kept, readings = [], []  # the message's arrivals, past forgetting

            def publish():
                network.nodes[entry].publish(message)
                kept.append(network.seen.arrivals[message.content_key])
                readings.append(kept[0].summary is not None)
                # Forgotten before the flood's earliest second arrival.
                network.seen.advance(message.round + FLOOD_HORIZON + 1)

            def read():
                network.catch_up()
                stale = {pid: node.stats["stale_dropped"] for pid, node in network.nodes.items()}
                readings.append((kept[0].held, stale))

            loop.call_at(at, publish)
            for after in (0.003, 0.005, 0.0075, 0.01, 0.02, 0.9 * clock.round_s):
                loop.call_at(at + after, read)
            await asyncio.sleep(clock.instant(1))
            return readings, network.stats_totals()

        return run_virtual(scenario())

    (whole, *readings), totals = flood(never_calm=False)
    (not_whole, *computed), computed_totals = flood(never_calm=True)
    assert (whole, not_whole) == (True, False)
    assert readings == computed
    assert readings[0] == (1 << entry, dict.fromkeys(range(FLOOD_N), 0))  # nothing due yet
    assert readings[-1] == (
        1 << entry,
        {pid: int(pid in FLOOD_TOPOLOGY[entry]) for pid in range(FLOOD_N)},
    )
    assert totals["draw_digests"] == computed_totals["draw_digests"] == 1


def test_across_two_shards_a_message_crosses_once_and_arrives_once():
    """K4 split into A = {0, 1, 2} and B = {3}, no jitter, 2 ms links.
    0 publishes at 0: A announces it to B once, and each shard computes
    the whole flood — A files 1 and 2 at 2 ms and settles 3 as a relay,
    B files 3 at 2 ms and settles A's pids as relays.  Nothing else
    crosses, and no node is reached twice."""
    k4 = {pid: tuple(peer for peer in range(4) if peer != pid) for pid in range(4)}
    registry = KeyRegistry(4, run_seed=0)
    vote = make_vote(registry, registry.secret_key(0), 0, None)
    model = {"base_latency_s": 0.002, "jitter_s": 0.0, "seed": 0}

    async def scenario():
        shard_a, shard_b = _mesh(4, ((0, 1, 2), (3,)), 0.001, model)
        clock = _started_clock()
        networks = [_network(fabric, k4, clock) for fabric in (shard_a, shard_b)]
        filed: dict[int, list[float]] = {pid: [] for pid in range(4)}
        for network in networks:
            tap_arrivals(network, lambda pid, _m, at: filed[pid].append(round(at, 6)))
        networks[0].nodes[0].publish(vote)
        await asyncio.sleep(0.1)
        for network in networks:
            network.catch_up()
        stats = {pid: dict(n.nodes[pid].stats) for n in networks for pid in n.nodes}
        relays = [n.seen.arrivals[vote.content_key].relayed for n in networks]
        return filed, shard_a, shard_b, stats, relays

    filed, shard_a, shard_b, stats, relays = run_virtual(scenario())
    assert filed == {0: [0.0], 1: [0.002], 2: [0.002], 3: [0.002]}
    assert shard_a.crossed == [(0, 0.0, vote)] and shard_b.crossed == []
    assert relays == [1 << 3, 0b111]
    assert {pid: s["delivered"] for pid, s in stats.items()} == {0: 1, 1: 1, 2: 1, 3: 1}
    assert {pid: s["duplicates"] for pid, s in stats.items()} == {0: 0, 1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize(
    "delay, lowered",
    [(0.0015, True), (0.003, False)],
    ids=["before-settled", "after-settled"],
)
def test_an_announcement_lowers_only_instants_not_yet_settled(delay, lowered):
    """Two shards on a ring 0-1-2-3-0, A = {0, 1}, B = {2, 3}, 1 ms links,
    and announcements that take ``delay`` to cross.  A publishes a vote
    at 0 at 0 ms and B the same vote at 2 at 0.5 ms, so 3 is first
    reached at 1 ms (from 0) in full flooding, and at 2 ms (from 2) in
    B's flood before A's entry is known there.  B catches up at 2.5 ms.
    A's entry, reaching B at 1.5 ms, lowers 3's instant to 1 ms; at 3 ms,
    after B settled 3, it changes nothing filed."""
    ring = {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}
    registry = KeyRegistry(4, run_seed=0)
    vote = make_vote(registry, registry.secret_key(0), 0, None)
    model = {"base_latency_s": 0.001, "jitter_s": 0.0, "seed": 0}

    async def scenario():
        loop = asyncio.get_running_loop()
        shard_a, shard_b = _mesh(4, ((0, 1), (2, 3)), 0.001, model, delay)
        clock = _started_clock()
        networks = [_network(fabric, ring, clock) for fabric in (shard_a, shard_b)]
        filed: dict[int, list[float]] = {pid: [] for pid in range(4)}
        for network in networks:
            tap_arrivals(network, lambda pid, _m, at: filed[pid].append(round(at, 6)))
        networks[0].nodes[0].publish(vote)
        loop.call_at(0.0005, networks[1].nodes[2].publish, vote)
        loop.call_at(0.0025, networks[1].catch_up)
        await asyncio.sleep(0.1)
        for network in networks:
            network.catch_up()
        stats = {pid: dict(n.nodes[pid].stats) for n in networks for pid in n.nodes}
        return filed, shard_a.crossed, shard_b.crossed, stats

    filed, from_a, from_b, stats = run_virtual(scenario())
    assert filed == {0: [0.0], 1: [0.001], 2: [0.0005], 3: [0.001 if lowered else 0.002]}
    assert from_a == [(0, 0.0, vote)] and from_b == [(2, 0.0005, vote)]
    assert [s["delivered"] for _, s in sorted(stats.items())] == [1, 1, 1, 1]
    assert sum(s["duplicates"] for s in stats.values()) == 0


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "e0f7730be9c9b7d5bea08b307ca924e4e2a2c5833c4047da909ae3ef94d22bd1"),
        (1, "fb89caea863a10a2b7c3565cf253d3e6dc5667171a7d0fb16c73dede3552fb59"),
    ],
)
def test_a_one_shard_deployment_arms_no_delivery_timer(seed, digest, monkeypatch):
    """A deployment with jitter and a surge decides on computed arrivals:
    its fabric parks no frame and arms no loop timer, and every node
    still first holds every message once (1,856 first arrivals, as the
    frame-by-frame flood had).  A message's links are drawn only if its
    flood is computed node by node: every message is either drawn or
    filed whole."""
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
    assert fabric.wheel.timers_created == 0
    assert fabric.sent_count == 0
    gossip = result.extras["gossip"]
    assert gossip["delivered"] == 1856
    assert gossip["duplicates"] == 0
    assert 0 < gossip["draw_digests"] < gossip["summarised"]
    assert gossip["draw_digests"] + gossip["summarised"] == 1856 // 8


def test_a_one_shard_deployment_files_its_calm_floods_whole(monkeypatch):
    """``summarised`` counts the floods a shard filed whole: in a
    one-process deployment on a virtual clock, with one surge period,
    every flood entering a calm round is filed whole and settled so,
    and no flood entering a surged round is filed whole.  Only the
    floods computed node by node draw their links."""
    conditions = NetworkConditions(periods=(AsyncPeriod(8, 2),))
    spec = RunSpec(
        n=8,
        rounds=20,
        eta=4,
        seed=1,
        conditions=conditions,
        transactions=SubmissionRateWorkload(3, seed=1),
    )
    entered: dict[bool, set[int]] = {True: set(), False: set()}
    summarise = GossipNetwork._summarise

    def watched(network, pid, t0, arrivals, message):
        whole = summarise(network, pid, t0, arrivals, message)
        entered[whole].add(network.clock.round_at(t0))
        return whole

    monkeypatch.setattr(GossipNetwork, "_summarise", watched)
    result = run_virtual(DeploymentBackend(processes=1, delta_s=0.04).execute_async(spec))
    surged = {r for r in range(spec.rounds) if conditions.surge_factor(r) != 1.0}
    sent = {r.round: r.votes_sent + r.proposes_sent + r.other_sent for r in result.trace.rounds}
    gossip = result.extras["gossip"]
    assert surged and entered[False] == surged
    assert entered[True] == set(range(spec.rounds)) - surged
    assert gossip["summarised"] == sum(sent[r] for r in entered[True])
    assert gossip["draw_digests"] == sum(sent[r] for r in surged)
    assert gossip["draw_digests"] + gossip["summarised"] == sum(sent.values())
