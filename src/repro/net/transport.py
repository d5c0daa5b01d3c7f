"""In-memory asyncio transport with per-link latencies and delay surges.

The round simulator in :mod:`repro.sleepy` gives the adversary *logical*
control over delivery; this transport models the physical phenomenon
behind it — latency.  Each link has a seeded base latency plus jitter,
and the transport can be configured with **surge windows** during which
latencies are multiplied (a real-world asynchronous period: the network
is slow, not lossy).  Messages are never dropped, matching the paper's
assumption that gossip survives transient asynchrony.

Latency sampling is **per-link**: every ordered ``(src, dst)`` pair owns
its own seeded random stream, derived from the transport seed and the
pair alone.  A single shared stream would make each sampled latency
depend on the *global order* of ``send`` calls — i.e. on asyncio task
interleaving — so two runs of the same deployment could draw different
latencies under scheduler jitter.  With per-link streams, the k-th
message on a link always draws the same latency no matter how sends on
other links interleave with it.
"""

from __future__ import annotations

import asyncio
import collections
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Protocol


class Transport(Protocol):
    """The data surface every fabric offers its consumers.

    Implemented by :class:`SimTransport` (one process, in-memory
    queues), :class:`~repro.net.socket_transport.SocketTransport` (one
    shard of a socket mesh) and
    :class:`~repro.net.proxy_transport.ProxyTransport` (attack effects
    in front of either); ``tests/net/test_transport_conformance.py``
    holds all three to it.  Lifecycle (start/anchor/connect/close) is
    deliberately not part of it: that is where the fabrics genuinely
    differ, and only whoever builds a fabric calls it.
    """

    #: Sends initiated through this fabric so far.
    sent_count: int

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst``; it arrives after the link latency."""

    def send_many(self, src: int, dsts: Iterable[int], payload: object) -> None:
        """:meth:`send` to every pid in ``dsts`` (same latencies, same counters)."""

    def defer(self, delay_s: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay_s`` on the fabric's timer budget."""

    async def recv(self, pid: int) -> tuple[int, object]:
        """Wait for the next ``(source, payload)`` addressed to ``pid``."""

    def recv_nowait(self, pid: int) -> tuple[int, object] | None:
        """The next already-arrived frame for ``pid``, or ``None``."""

    def now(self) -> float:
        """Seconds since the fabric was started/anchored."""

    def latency(self, src: int, dst: int, at_s: float) -> float:
        """Sampled one-way latency for ``src → dst`` at ``at_s``."""

    def queue_depths(self) -> dict[int, int]:
        """Arrived-but-unreceived frames per hosted pid."""


@dataclass(frozen=True)
class SurgeWindow:
    """Latency multiplier ``factor`` applied during ``[start_s, end_s)``.

    Times are seconds since :meth:`SimTransport.start`.
    """

    start_s: float
    end_s: float
    factor: float


class LinkLatencyModel:
    """Seeded per-link latency streams shared by every transport flavour.

    One ordered ``(src, dst)`` pair → one :class:`random.Random` stream,
    seeded from ``(seed, src, dst)`` content (string seeding hashes via
    SHA-512, so streams are identical across processes and hash seeds —
    a sharded multi-process deployment draws exactly the latencies the
    single-process run would).
    """

    def __init__(
        self,
        base_latency_s: float,
        jitter_s: float,
        seed: int,
        surges: tuple[SurgeWindow, ...] = (),
    ) -> None:
        if base_latency_s < 0 or jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        self._base = base_latency_s
        self._jitter = jitter_s
        self._seed = seed
        self._surges = surges
        self._link_rngs: dict[tuple[int, int], random.Random] = {}

    def latency(self, src: int, dst: int, at_s: float) -> float:
        """Sampled one-way latency for the ``src → dst`` link at ``at_s``."""
        if self._jitter == 0.0 and not self._surges:
            # Zero-jitter links are deterministic: every draw is the
            # base latency regardless of stream state, so skip the
            # per-link stream entirely on this hot path.
            return self._base
        rng = self._link_rngs.get((src, dst))
        if rng is None:
            rng = self._link_rngs[(src, dst)] = random.Random(
                f"link:{self._seed}:{src}:{dst}"
            )
        delay = self._base + rng.random() * self._jitter
        for surge in self._surges:
            if surge.start_s <= at_s < surge.end_s:
                delay *= surge.factor
        return delay


class FrameQueue:
    """A single-reader frame queue: one deque, at most one waiter.

    :class:`asyncio.Queue` pays for generality this fabric never uses —
    multi-consumer wakeup chains, put-side blocking, a future per
    ``get`` even when items are already waiting.  Every transport queue
    has exactly one reader (the pid's receive loop), so the fast paths
    collapse to a deque operation, which matters at tens of thousands
    of deliveries per second.  Concurrent ``get`` calls on one queue
    are a programming error and raise.
    """

    __slots__ = ("_items", "_waiter")

    def __init__(self) -> None:
        self._items: collections.deque = collections.deque()
        self._waiter: asyncio.Future | None = None

    def put_nowait(self, item) -> None:
        """Append ``item``, waking the reader if it is parked."""
        self._items.append(item)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    async def get(self):
        """Wait for and remove the next item."""
        while not self._items:
            if self._waiter is not None:
                raise RuntimeError("FrameQueue supports a single reader")
            waiter = asyncio.get_running_loop().create_future()
            self._waiter = waiter
            try:
                await waiter
            finally:
                if self._waiter is waiter:
                    self._waiter = None
        return self._items.popleft()

    def get_nowait(self):
        """Remove and return the next item, or ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def qsize(self) -> int:
        """Items currently queued."""
        return len(self._items)


class DeliveryWheel:
    """Slot-coalesced delivery timers: one loop timer per slot, not per message.

    A vote-heavy broadcast round schedules thousands of deliveries whose
    due times all land within one latency envelope — one
    ``loop.call_later`` per delivery is a timer storm (heap churn scales
    with messages).  The wheel quantizes due times up to the next slot
    boundary (slots are ``slot_s`` wide on the event-loop clock) and
    arms **one** timer per non-empty slot; when it fires, every delivery
    parked in the slot runs in scheduling order.

    Quantization delays a delivery by strictly less than ``slot_s``.
    Deployments size slots at δ/8 — the fabric's base link latency —
    which the round structure absorbs exactly like modelled jitter
    (Δ = 3δ, the receive phase sits at 0.9 Δ).

    ``timers_created`` counts loop timers ever armed, so tests can pin
    the O(slots)-not-O(messages) contract.
    """

    def __init__(self, slot_s: float) -> None:
        if slot_s <= 0:
            raise ValueError("slot width must be positive")
        self.slot_s = slot_s
        self._slots: dict[int, list[tuple]] = {}
        self._handles: dict[int, asyncio.TimerHandle] = {}
        #: Loop timers armed over the wheel's lifetime.
        self.timers_created = 0
        #: Deliveries ever scheduled (for the O(slots) vs O(messages) ratio).
        self.scheduled_count = 0

    def slot_for(self, delay_s: float) -> int:
        """The slot index a delivery due ``delay_s`` from now lands in."""
        due = asyncio.get_running_loop().time() + delay_s
        return math.ceil(due / self.slot_s)

    def schedule(self, slot: int, callback, *args) -> None:
        """Park ``callback(*args)`` in ``slot``, arming its timer if new."""
        entries = self._slots.get(slot)
        if entries is None:
            entries = self._slots[slot] = []
            loop = asyncio.get_running_loop()
            self._handles[slot] = loop.call_at(slot * self.slot_s, self._fire, slot)
            self.timers_created += 1
        entries.append((callback, args))
        self.scheduled_count += 1

    def _fire(self, slot: int) -> None:
        self._handles.pop(slot, None)
        for callback, args in self._slots.pop(slot, ()):
            callback(*args)

    @property
    def pending(self) -> int:
        """Deliveries parked and not yet fired."""
        return sum(len(entries) for entries in self._slots.values())

    def flush(self) -> None:
        """Run every pending delivery now, earliest slot first (teardown)."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()
        while self._slots:
            slot = min(self._slots)
            for callback, args in self._slots.pop(slot):
                callback(*args)

    def cancel(self) -> None:
        """Discard every pending delivery and timer."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()
        self._slots.clear()


class SimTransport:
    """Point-to-point message fabric for one deployment run.

    Deliveries ride a :class:`DeliveryWheel` (one timer per slot);
    ``slot_s`` is the slot width and defaults, as on the socket fabric,
    to the base link latency.
    """

    def __init__(
        self,
        n: int,
        base_latency_s: float = 0.002,
        jitter_s: float = 0.001,
        seed: int = 0,
        surges: tuple[SurgeWindow, ...] = (),
        slot_s: float | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one node")
        self.n = n
        self._latency = LinkLatencyModel(base_latency_s, jitter_s, seed, surges)
        self._queues: dict[int, FrameQueue] = {}
        self._origin: float | None = None
        self.wheel = DeliveryWheel(slot_s if slot_s is not None else (base_latency_s or 0.0005))
        self.sent_count = 0

    def start(self) -> None:
        """Anchor the clock and create queues; call once inside the loop."""
        self._queues = {pid: FrameQueue() for pid in range(self.n)}
        self._origin = asyncio.get_running_loop().time()

    def now(self) -> float:
        """Seconds since :meth:`start`."""
        if self._origin is None:
            raise RuntimeError("transport not started")
        return asyncio.get_running_loop().time() - self._origin

    def latency(self, src: int, dst: int, at_s: float) -> float:
        """Sampled one-way latency for ``src → dst`` at ``at_s`` (per-link stream)."""
        return self._latency.latency(src, dst, at_s)

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst``; it arrives after the link latency."""
        if self._origin is None:
            raise RuntimeError("transport not started")
        # One clock read serves both the model time and the wheel slot
        # (this is the hottest line of a simulated broadcast round).
        loop_time = asyncio.get_running_loop().time()
        delay = self._latency.latency(src, dst, loop_time - self._origin)
        slot = math.ceil((loop_time + delay) / self.wheel.slot_s)
        self.wheel.schedule(slot, self._queues[dst].put_nowait, (src, payload))
        self.sent_count += 1

    def send_many(self, src: int, dsts, payload: object) -> None:
        """Fan ``payload`` out from ``src`` to every pid in ``dsts``.

        Equivalent to calling :meth:`send` per destination (same
        per-link latencies, same counters) with the fan-out's fixed
        costs — clock read, loop lookup — paid once.  The adversarial
        proxy does not forward this method; it decomposes fan-outs into
        per-frame :meth:`send` calls.
        """
        if self._origin is None:
            raise RuntimeError("transport not started")
        loop_time = asyncio.get_running_loop().time()
        at = loop_time - self._origin
        sample = self._latency.latency
        wheel = self.wheel
        for dst in dsts:
            delay = sample(src, dst, at)
            slot = math.ceil((loop_time + delay) / wheel.slot_s)
            wheel.schedule(slot, self._queues[dst].put_nowait, (src, payload))
            self.sent_count += 1

    def defer(self, delay_s: float, callback, *args) -> None:
        """Schedule ``callback`` after ``delay_s`` through the slot wheel.

        The :class:`~repro.net.proxy_transport.ProxyTransport` surge
        path routes its extra delays here so attack-delayed frames ride
        the same O(slots) timer budget as ordinary deliveries.
        """
        self.wheel.schedule(self.wheel.slot_for(delay_s), callback, *args)

    async def recv(self, pid: int) -> tuple[int, object]:
        """Wait for the next ``(source, payload)`` addressed to ``pid``."""
        if self._origin is None:
            raise RuntimeError("transport not started")
        return await self._queues[pid].get()

    def recv_nowait(self, pid: int) -> tuple[int, object] | None:
        """The next already-arrived frame for ``pid``, or ``None``.

        Slot-coalesced delivery lands a whole slot's frames at once, so
        a consumer that bursts through the backlog after each ``recv``
        wakes once per slot instead of once per frame.
        """
        return self._queues[pid].get_nowait()

    def queue_depths(self) -> dict[int, int]:
        """Pending (already-arrived, not yet received) messages per node."""
        return {pid: queue.qsize() for pid, queue in self._queues.items()}
