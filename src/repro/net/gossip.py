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
Foreign message types without a content key (test doubles) fall back to
their ``message_id`` attribute as the key.

The **shard is the unit of dissemination**: all nodes one
:class:`GossipNetwork` hosts share one :class:`SeenIndex` (key → which
hosted nodes hold it), and a node does not materialise a forward to a
neighbour *of the same network* that already holds the message — that
frame could only ever be counted as a duplicate on arrival.  What
elision may skip is exactly that: the frame.  What it may not skip: the
link's latency draw (the k-th frame *offered* to a link still draws the
k-th latency, so every first arrival lands in the slot it would have
without elision), any forward to a neighbour that has not ingested the
message yet (one in flight to it does not count — this forward may be
the earlier one), and any forward to a pid another network hosts (its
seen set is not ours to read: every cross-shard frame is sent).  Each
overlay edge inside a shard therefore carries a message once, not once
per direction.  Per-node *delivery* stays per node: sleep/wake and the
adversarial proxy's per-frame coins see every frame that is sent.

The seen index is also **bounded**: on a long-running service it would
otherwise retain one key per message forever.  Entries are
round-bucketed and evicted once their message round falls behind the
current round (read from an authoritative clock — once per arrival —
never from message fields, which are attacker-controlled) by more than
the configured horizon — the vote-expiry horizon plus slack, below
which no protocol consumer can still use the message.  Messages already
older than that on arrival are dropped outright (counted, never
silently), which keeps an evicted key from re-flooding forever.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.net.transport import Transport
from repro.sleepy.messages import Message, dedup_key

#: Called on each node's behalf when a new message first reaches it.
DeliveryHandler = Callable[[int, Message], None]


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
    node.  With ``current_round`` and ``horizon_rounds`` both given the
    index is bounded (module docstring); otherwise it keeps every key
    forever, which is only acceptable for bounded test runs.
    """

    __slots__ = ("holders", "current_round", "horizon", "_buckets", "_floor")

    def __init__(
        self,
        current_round: Callable[[], int] | None = None,
        horizon_rounds: int | None = None,
    ) -> None:
        if horizon_rounds is not None and horizon_rounds < 0:
            raise ValueError("seen horizon must be non-negative")
        self.holders: dict[object, int] = {}
        self.current_round = current_round
        #: ``None`` = unbounded.
        self.horizon = horizon_rounds if current_round is not None else None
        #: round -> keys first seen (by any hosted node) with that message round.
        self._buckets: dict[int, list[object]] = {}
        self._floor = 0

    def __len__(self) -> int:
        return len(self.holders)

    def admit(self, key: object, message_round: int, now: int) -> None:
        """Bucket a key no hosted node held, then evict below the horizon."""
        # Clamp attacker-controlled future round tags so a huge tag
        # cannot park its bucket beyond every future eviction.
        self._buckets.setdefault(min(max(message_round, 0), now), []).append(key)
        floor = now - self.horizon
        while self._floor < floor:
            for stale in self._buckets.pop(self._floor, ()):
                self.holders.pop(stale, None)
            self._floor += 1


class GossipNode:
    """One node's view of the gossip overlay.

    ``transport`` is any :class:`~repro.net.transport.Transport` — the
    in-process :class:`~repro.net.transport.SimTransport`, the
    multi-process :class:`~repro.net.socket_transport.SocketTransport`,
    or the adversarial proxy in front of either.  The node subscribes to
    its pid here, before any frame can exist; ``seen`` is its
    :class:`GossipNetwork`'s, shared by every node it hosts.
    """

    def __init__(
        self,
        pid: int,
        transport: Transport,
        neighbors: tuple[int, ...],
        on_deliver: DeliveryHandler,
        seen: SeenIndex,
    ) -> None:
        self.pid = pid
        self._transport = transport
        self._neighbors = neighbors
        self._on_deliver = on_deliver
        self._seen = seen
        self._bit = 1 << pid
        #: Dissemination accounting (consumed by metrics and tests).
        self.stats = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}
        transport.subscribe(pid, self._receive)

    def publish(self, message: Message) -> None:
        """Originate a message: deliver locally and push to neighbours."""
        self._ingest(None, message)

    def stop(self) -> None:
        """Unsubscribe: frames still in flight to this node are held, not ingested."""
        self._transport.unsubscribe(self.pid)

    def _receive(self, src: int, payload: object) -> None:
        if isinstance(payload, Message):
            self._ingest(src, payload)

    def _ingest(self, src: int | None, message: Message) -> None:
        seen = self._seen
        now = None
        if seen.horizon is not None:
            # The one clock read of this arrival: it serves the stale
            # check here and the bucket clamp and eviction in ``admit``.
            now = seen.current_round()
            message_round = getattr(message, "round", 0)
            if message_round < now - seen.horizon:
                # Older than anything the protocol can still consume:
                # its votes are expired and its proposal views pruned.
                # Dropping (audited, never silent) also prevents a
                # re-flood loop once the key has been evicted.
                self.stats["stale_dropped"] += 1
                return
        key = dedup_key(message)
        holders = seen.holders.get(key, 0)
        if holders & self._bit:
            self.stats["duplicates"] += 1
            return
        if now is not None and not holders:
            seen.admit(key, message_round, now)
        holders |= self._bit
        seen.holders[key] = holders
        self.stats["delivered"] += 1
        # Forward before handing over, so a consumer that raises costs
        # its own delivery and not the flood's next hop.
        transport = self._transport
        forwards = []
        for neighbor in self._neighbors:
            if neighbor == src:
                continue
            if holders >> neighbor & 1:
                # A co-located holder: the frame could only be counted
                # as a duplicate, so it is not built — but the link is
                # still *offered* it, so its latency stream advances as
                # if it had been sent (only the draw matters, not when).
                transport.latency(self.pid, neighbor, 0.0)
            else:
                forwards.append(neighbor)
        if forwards:
            transport.send_many(self.pid, forwards, message)
        self._on_deliver(self.pid, message)


class GossipNetwork:
    """All gossip nodes one process hosts.

    ``topology`` may cover a *shard* of the deployment: a multi-process
    worker builds nodes only for the pids it hosts, while the transport
    routes forwards addressed to remote pids over sockets.  Construct it
    before the fabric starts listening: every node subscribes here, so
    no frame can precede its consumer.

    ``current_round`` / ``seen_horizon_rounds`` bound the shard's
    :class:`SeenIndex`; with either unset it keeps every key forever.
    """

    def __init__(
        self,
        transport: Transport,
        topology: dict[int, tuple[int, ...]],
        on_deliver: DeliveryHandler,
        current_round: Callable[[], int] | None = None,
        seen_horizon_rounds: int | None = None,
    ) -> None:
        self.seen = SeenIndex(current_round, seen_horizon_rounds)
        self.nodes = {
            pid: GossipNode(pid, transport, neighbors, on_deliver, self.seen)
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
