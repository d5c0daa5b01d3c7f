"""Gossip dissemination over an asyncio transport.

The paper assumes "an underlying peer-to-peer dissemination protocol
(e.g., a gossip protocol)" (§2.1) with two crucial properties exercised
here: messages reach everyone even if the original sender goes to sleep
mid-dissemination, and messages survive asynchronous periods (they are
delayed, not lost).

Topology is a random k-regular overlay (complete graph for tiny n);
every node forwards each first-seen message to all its neighbours, which
floods any connected graph in ``diameter`` hops.

Delivery is **pushed**: each node subscribes to its pid at construction
and the fabric calls it per frame, in slot order (see
:mod:`repro.net.transport`) — no pump task, no queue.  A node that is
stopped unsubscribes; frames still in flight to it are held by the
fabric, not re-flooded.

Deduplication is **content-keyed**, exactly like the round simulator's
message bus (:mod:`repro.engine.bus`): the "seen" key is the message's
:attr:`~repro.sleepy.messages.Message.content_key` — a flat tuple of
fields its constructor type-checked, built per arrival, compared
exactly, with no encoding, no hash and no memo behind it — and never an
id read from the message (README,
"Identifiers and where they are computed"; a trusted id would let a
junk message carrying a transplanted one censor the honest original).
Gossip carries :class:`~repro.sleepy.messages.Message` objects only: a
frame with any other payload is ignored on arrival.

The **shard is the unit of dissemination**: all nodes one
:class:`GossipNetwork` hosts share one :class:`SeenIndex` (key → which
hosted nodes hold it).  A node offers a first-seen message to every
neighbour but its source in one ``send_many`` call, with the shard's
holders as ``skip``.  The fabric (:mod:`repro.net.transport`) decides
which frames exist:

* every offered link draws its latency, so every first arrival lands in
  the slot it would have under full flooding;
* a co-located holder gets no frame — it could only count a duplicate;
* a frame behind a copy of the same message object already in flight
  to its pid is superseded: sent and counted, never parked.

A neighbour that has not ingested the message is always sent a frame,
and so is every pid another network hosts (its seen set is not ours to
read).  In one process supersession removes nearly every remaining
duplicate; what is left — a copy from another process, or one that lands
before the copy in flight — arrives and is counted as a duplicate.
Per-node *arrival* stays per node: sleep/wake and the adversarial
proxy's per-frame coins see every frame that is sent.

**Admission is per shard**, too.  A message is handed to the network's
one admission callback once, when it first reaches any node the network
hosts (the seen index held no bit for its key) — a deployment shard
publishes it into its :class:`~repro.engine.bus.MessageBus` there
(:class:`~repro.runtime.delivery.ShardDelivery`).  Which hosted nodes
have it since is the key's bitmask in the seen index, and how many
first arrivals each node had is its ``stats["delivered"]``; no node
keeps a list of what reached it.

The seen index is also **bounded**: on a long-running service it would
otherwise retain one key per message forever.  Entries are
round-bucketed and evicted once their message round falls more than the
horizon behind the current round — η +
:data:`~repro.sleepy.horizon.SEEN_SLACK_ROUNDS`, below which no
protocol consumer can still use the message.  The
current round comes from the shard's phase loop, which advances the
index once per round (:meth:`SeenIndex.advance`), never from message
fields, which are attacker-controlled.  Messages already older than the
horizon on arrival are dropped outright (counted, never silently),
which keeps an evicted key from re-flooding forever.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.net.transport import Transport
from repro.sleepy.horizon import RoundBuckets
from repro.sleepy.messages import Message

#: A network's consumer: called with a message and its dedup key when the
#: message first reaches any node the network hosts.
AdmissionHandler = Callable[[Message, tuple], None]


def _random_regular_edges(degree: int, n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Steger–Wormald pairing: the edge set of a random ``degree``-regular
    graph on ``n`` nodes (``n * degree`` even, ``0 < degree < n``).

    Draw for draw what ``networkx.random_regular_graph(degree, n, rng)``
    does with the same generator — overlays are part of a run's seeded
    identity, so the port keeps that function's shuffles, its retry
    rule and the quirk noted below (``tests/net/test_gossip.py`` compares
    the two wherever networkx is installed).
    """

    def suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
        # Whether some pair of nodes with unmatched stubs is not an edge yet.
        if not leftover:
            return True
        for s1 in leftover:
            for s2 in leftover:
                if s1 == s2:
                    break
                if s1 > s2:
                    # Rebinds the outer node for the rest of this inner
                    # loop, as networkx's ``_suitable`` does: which dense
                    # attempts are retried depends on it.
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            leftover: dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not suitable(edges, leftover):
                break  # this attempt cannot be completed: start over
            stubs = [node for node, count in leftover.items() for _ in range(count)]
        else:
            return edges


def _is_connected(neighbours: dict[int, list[int]]) -> bool:
    reached = {0}
    stack = [0]
    while stack:
        for peer in neighbours[stack.pop()]:
            if peer not in reached:
                reached.add(peer)
                stack.append(peer)
    return len(reached) == len(neighbours)


def regular_topology(n: int, degree: int, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """A connected random ``degree``-regular overlay (complete if small).

    Falls back to the complete graph when a regular graph of the
    requested degree does not exist or would be smaller than useful.
    """
    if n <= degree + 1 or (n * degree) % 2 == 1:
        return {pid: tuple(q for q in range(n) if q != pid) for pid in range(n)}
    rng = random.Random(seed)
    for attempt in range(32):
        neighbours: dict[int, list[int]] = {pid: [] for pid in range(n)}
        for a, b in _random_regular_edges(degree, n, random.Random(rng.randrange(1 << 30))):
            neighbours[a].append(b)
            neighbours[b].append(a)
        if _is_connected(neighbours):
            return {pid: tuple(sorted(peers)) for pid, peers in neighbours.items()}
    raise RuntimeError("could not sample a connected regular overlay")


class SeenIndex:
    """Which hosted nodes hold which message: one index per shard.

    ``holders`` maps a dedup key to a bitmask over pids (bit ``pid`` set
    = that hosted node has ingested the message).  One entry per message
    per shard, one bucket list, one eviction sweep — not one of each per
    node.  Keys are filed by message round in a
    :class:`~repro.sleepy.horizon.RoundBuckets` and forgotten once that
    round falls below :attr:`floor`, ``horizon_rounds`` behind the round
    :meth:`advance` last set (module docstring).
    """

    __slots__ = ("holders", "horizon", "now", "floor", "_rounds")

    def __init__(self, horizon_rounds: int) -> None:
        if horizon_rounds < 0:
            raise ValueError("seen horizon must be non-negative")
        self.holders: dict[object, int] = {}
        self.horizon = horizon_rounds
        #: The shard's current round, and the oldest message round still kept.
        self.now = 0
        self.floor = -horizon_rounds
        self._rounds = RoundBuckets(self.floor)

    def __len__(self) -> int:
        return len(self.holders)

    def advance(self, now: int) -> None:
        """Enter round ``now``: forget every key filed below the new floor."""
        self.now, self.floor = now, now - self.horizon
        holders = self.holders
        for stale in self._rounds.release(self.floor):
            holders.pop(stale, None)

    def admit(self, key: object, message_round: int) -> None:
        """File a key no hosted node held."""
        # Clamp attacker-controlled future round tags so a huge tag
        # cannot park its bucket beyond every future eviction.
        self._rounds.bucket(min(message_round, self.now)).append(key)


class GossipNode:
    """One node's view of the gossip overlay.

    ``transport`` is any :class:`~repro.net.transport.Transport` — the
    one-shard :class:`~repro.net.transport.SimTransport`, a shard's
    :class:`~repro.net.socket_transport.SocketTransport`,
    or the adversarial proxy in front of either.  The node subscribes to
    its pid here, before any frame can exist; ``seen`` and ``on_admit``
    are its :class:`GossipNetwork`'s, shared by every node it hosts.
    """

    def __init__(
        self,
        pid: int,
        transport: Transport,
        neighbors: tuple[int, ...],
        on_admit: AdmissionHandler,
        seen: SeenIndex,
    ) -> None:
        self.pid = pid
        self._transport = transport
        self._neighbors = neighbors
        #: Source -> the neighbours a message from it is offered to.  A
        #: source comes from the peer, so any other value (a publish's
        #: ``None`` included) falls back to every neighbour.
        self._forwards = {q: tuple(p for p in neighbors if p != q) for q in neighbors}
        self._on_admit = on_admit
        self._seen = seen
        self._bit = 1 << pid
        #: Dissemination accounting (consumed by metrics, tests and the
        #: shard's receive phase: ``delivered`` counts first arrivals).
        self.stats = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}
        transport.subscribe(pid, self._ingest)

    def publish(self, message: Message) -> None:
        """Originate a message: deliver locally and push to neighbours."""
        self._ingest(None, message)

    def stop(self) -> None:
        """Unsubscribe: frames still in flight to this node are held, not ingested."""
        self._transport.unsubscribe(self.pid)

    def _ingest(self, src: int | None, message: object) -> None:
        """One arrival from ``src`` (``None``: published here); the fabric's handler."""
        if not isinstance(message, Message):
            return
        seen = self._seen
        if message.round < seen.floor:
            # Older than anything the protocol can still consume: its
            # votes are expired and its proposal views pruned.  Dropping
            # (audited, never silent) also prevents a re-flood loop once
            # the key has been evicted.
            self.stats["stale_dropped"] += 1
            return
        key = message.content_key
        holders = seen.holders.get(key, 0)
        if holders & self._bit:
            self.stats["duplicates"] += 1
            return
        first = not holders
        if first:
            seen.admit(key, message.round)
        holders |= self._bit
        seen.holders[key] = holders
        self.stats["delivered"] += 1
        # Forward before handing over, so a consumer that raises costs
        # the shard its admission and not the flood's next hop.
        # Co-located holders are offered the message (their links draw)
        # and skipped.
        self._transport.send_many(
            self.pid, self._forwards.get(src, self._neighbors), message, holders
        )
        if first:
            self._on_admit(message, key)


class GossipNetwork:
    """All gossip nodes one process hosts.

    ``topology`` may cover a *shard* of the deployment: a multi-process
    worker builds nodes only for the pids it hosts, while the transport
    routes forwards addressed to remote pids over sockets.  Construct it
    before the fabric starts listening: every node subscribes here, so
    no frame can precede its consumer.

    ``on_admit`` is the shard's one consumer, called once per message
    (module docstring).  ``seen`` is the shard's :class:`SeenIndex`,
    which its owner advances once per round.
    """

    def __init__(
        self,
        transport: Transport,
        topology: dict[int, tuple[int, ...]],
        on_admit: AdmissionHandler,
        seen: SeenIndex,
    ) -> None:
        self.seen = seen
        self.nodes = {
            pid: GossipNode(pid, transport, neighbors, on_admit, seen)
            for pid, neighbors in topology.items()
        }

    def stop(self) -> None:
        """Unsubscribe every node (teardown flushes then reach nobody)."""
        for node in self.nodes.values():
            node.stop()

    def stats_totals(self) -> dict[str, int]:
        """Summed per-node dissemination counters, plus the shard's live seen keys."""
        totals = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}
        for node in self.nodes.values():
            for key in totals:
                totals[key] += node.stats[key]
        totals["seen_entries"] = len(self.seen)
        return totals
