"""Gossip dissemination over an asyncio transport.

The paper assumes "an underlying peer-to-peer dissemination protocol
(e.g., a gossip protocol)" (§2.1) with two crucial properties exercised
here: messages reach everyone even if the original sender goes to sleep
mid-dissemination, and messages survive asynchronous periods (they are
delayed, not lost).

Topology is a random k-regular overlay (complete graph for tiny n);
every node forwards each first-seen message to all its neighbours, which
floods any connected graph in ``diameter`` hops.

Deduplication is **digest-keyed**, exactly like the round simulator's
message bus (:mod:`repro.engine.bus`): the "seen" key is the message's
content digest, computed by this consumer's
:class:`~repro.sleepy.messages.DigestMemo` once per message object —
not once per arrival — and never read from the message (README,
"Identifiers and where they are computed"; a trusted id would let a
junk message carrying a transplanted one censor the honest original).
Foreign message types without signed fields (test doubles) fall back to
their ``message_id`` attribute as the key.

The seen set is also **bounded**: on a long-running service every node
would otherwise retain one digest per message forever.  Entries are
round-bucketed and evicted once their message round falls behind the
current round (read from an authoritative clock, never from message
fields, which are attacker-controlled) by more than the configured
horizon — the vote-expiry horizon plus slack, below which no protocol
consumer can still use the message.  Messages already older than that
on arrival are dropped outright (counted, never silently), which keeps
an evicted digest from re-flooding forever.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable

import networkx as nx

from repro.net.transport import Transport
from repro.sleepy.messages import DigestMemo, Message

#: Called on each node's behalf when a new message first reaches it.
DeliveryHandler = Callable[[int, Message], None]


def regular_topology(n: int, degree: int, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """A connected random ``degree``-regular overlay (complete if small).

    Falls back to the complete graph when a regular graph of the
    requested degree does not exist or would be smaller than useful.
    """
    if n <= degree + 1 or (n * degree) % 2 == 1:
        return {pid: tuple(q for q in range(n) if q != pid) for pid in range(n)}
    rng = random.Random(seed)
    for attempt in range(32):
        graph = nx.random_regular_graph(degree, n, seed=rng.randrange(1 << 30))
        if nx.is_connected(graph):
            return {pid: tuple(sorted(graph.neighbors(pid))) for pid in range(n)}
    raise RuntimeError("could not sample a connected regular overlay")


class GossipNode:
    """One node's view of the gossip overlay.

    ``transport`` is any :class:`~repro.net.transport.Transport` — the
    in-process :class:`~repro.net.transport.SimTransport`, the
    multi-process :class:`~repro.net.socket_transport.SocketTransport`,
    or the adversarial proxy in front of either.

    ``current_round`` / ``seen_horizon_rounds`` bound the seen set (see
    the module docstring); with either unset the node keeps every digest
    forever, which is only acceptable for bounded test runs.
    """

    def __init__(
        self,
        pid: int,
        transport: Transport,
        neighbors: tuple[int, ...],
        on_deliver: DeliveryHandler,
        current_round: Callable[[], int] | None = None,
        seen_horizon_rounds: int | None = None,
    ) -> None:
        if seen_horizon_rounds is not None and seen_horizon_rounds < 0:
            raise ValueError("seen horizon must be non-negative")
        self.pid = pid
        self._transport = transport
        self._neighbors = neighbors
        self._on_deliver = on_deliver
        self._current_round = current_round
        self._seen_horizon = seen_horizon_rounds
        #: dedup key -> message round (for eviction accounting).
        self._seen: dict[str, int] = {}
        #: round -> keys first seen with that message round.
        self._seen_buckets: dict[int, list[str]] = {}
        self._seen_floor = 0
        #: Replaced by the network's when one hosts this node.
        self._digests = DigestMemo()
        self._pump_task: asyncio.Task | None = None
        #: Dissemination accounting (consumed by metrics and tests).
        self.stats = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}

    def publish(self, message: Message) -> None:
        """Originate a message: deliver locally and push to neighbours."""
        self._ingest(None, message)

    def start(self) -> None:
        """Begin pumping incoming transport messages (call inside the loop)."""
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def stop(self) -> None:
        """Cancel the pump task and wait for it to unwind."""
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass

    def seen_count(self) -> int:
        """Live dedup entries (bounded when a horizon is configured)."""
        return len(self._seen)

    async def _pump(self) -> None:
        while True:
            src, payload = await self._transport.recv(self.pid)
            if isinstance(payload, Message):
                self._ingest(src, payload)

    def _ingest(self, src: int | None, message: Message) -> None:
        message_round = getattr(message, "round", 0)
        expiry_floor = self._expiry_floor()
        if expiry_floor is not None and message_round < expiry_floor:
            # Older than anything the protocol can still consume: its
            # votes are expired and its proposal views pruned.  Dropping
            # (audited, never silent) also prevents a re-flood loop once
            # the digest has been evicted below.
            self.stats["stale_dropped"] += 1
            return
        key = self._dedup_key(message)
        if key in self._seen:
            self.stats["duplicates"] += 1
            return
        bucket_round = message_round
        if expiry_floor is not None:
            # Clamp attacker-controlled future round tags so a huge tag
            # cannot park its bucket beyond every future eviction.
            now = self._current_round()
            bucket_round = min(max(bucket_round, 0), now)
        self._seen[key] = bucket_round
        self._seen_buckets.setdefault(bucket_round, []).append(key)
        if expiry_floor is not None:
            self._evict_seen(expiry_floor)
        self.stats["delivered"] += 1
        self._on_deliver(self.pid, message)
        for neighbor in self._neighbors:
            if neighbor != src:
                self._transport.send(self.pid, neighbor, message)

    def _expiry_floor(self) -> int | None:
        if self._current_round is None or self._seen_horizon is None:
            return None
        return self._current_round() - self._seen_horizon

    def _evict_seen(self, floor: int) -> None:
        while self._seen_floor < floor:
            for key in self._seen_buckets.pop(self._seen_floor, ()):
                self._seen.pop(key, None)
            self._seen_floor += 1

    def _dedup_key(self, message: Message) -> str:
        if isinstance(message, Message):
            return self._digests.digest(message)
        return message.message_id


class GossipNetwork:
    """All gossip nodes one process hosts.

    ``topology`` may cover a *shard* of the deployment: a multi-process
    worker builds nodes only for the pids it hosts, while the transport
    routes forwards addressed to remote pids over sockets.
    """

    def __init__(
        self,
        transport: Transport,
        topology: dict[int, tuple[int, ...]],
        on_deliver: DeliveryHandler,
        current_round: Callable[[], int] | None = None,
        seen_horizon_rounds: int | None = None,
    ) -> None:
        self.nodes = {
            pid: GossipNode(
                pid,
                transport,
                neighbors,
                on_deliver,
                current_round=current_round,
                seen_horizon_rounds=seen_horizon_rounds,
            )
            for pid, neighbors in topology.items()
        }
        # One memo for all hosted nodes: the same message object reaches
        # each of them, and its digest depends on its content alone.
        digests = DigestMemo()
        for node in self.nodes.values():
            node._digests = digests

    def start(self) -> None:
        """Start every node's pump."""
        for node in self.nodes.values():
            node.start()

    async def stop(self) -> None:
        """Stop every node's pump."""
        await asyncio.gather(*(node.stop() for node in self.nodes.values()))

    def stats_totals(self) -> dict[str, int]:
        """Summed per-node dissemination counters."""
        totals = {"delivered": 0, "duplicates": 0, "stale_dropped": 0, "seen_entries": 0}
        for node in self.nodes.values():
            for key in ("delivered", "duplicates", "stale_dropped"):
                totals[key] += node.stats[key]
            totals["seen_entries"] += node.seen_count()
        return totals
