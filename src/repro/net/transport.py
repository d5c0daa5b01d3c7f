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

Delivery is **pushed**.  A consumer registers one handler per pid
(:meth:`Transport.subscribe`) and the fabric calls it, synchronously,
for every frame addressed to that pid: there is no receive call, no
queue and no task between a :class:`DeliveryWheel` slot and the
consumer.  **Slot order is the delivery order** — frames parked in one
slot reach their subscribers in the order they were scheduled, whoever
they are addressed to — so the order a consumer observes is a function
of the sends alone, not of which task the event loop wakes first.  A
frame for a hosted pid that has no subscriber (yet, or any more) is
held and handed over on the next ``subscribe``; a handler that raises is
counted (``handler_errors``), logged, and costs only its own frame.
"""

from __future__ import annotations

import asyncio
import logging
import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Protocol

_log = logging.getLogger(__name__)

#: Called with ``(source pid, payload)`` for each frame a pid receives.
FrameHandler = Callable[[int, object], None]


class Transport(Protocol):
    """The data surface every fabric offers its consumers.

    Implemented by :class:`SimTransport` (one process, in memory),
    :class:`~repro.net.socket_transport.SocketTransport` (one
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

    def subscribe(self, pid: int, handler: FrameHandler) -> None:
        """Push every frame addressed to hosted ``pid`` to ``handler(src, payload)``.

        Frames that arrived while ``pid`` had no subscriber are handed
        over first, in arrival order.
        """

    def unsubscribe(self, pid: int) -> None:
        """Stop pushing to ``pid``'s handler; later arrivals are held."""

    def now(self) -> float:
        """Seconds since the fabric was started/anchored."""

    def latency(self, src: int, dst: int, at_s: float) -> float:
        """Sampled one-way latency for ``src → dst`` at ``at_s``."""


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


class DeliveryWheel:
    """Slot-coalesced delivery timers: one loop timer per slot, not per message.

    A vote-heavy broadcast round schedules thousands of deliveries whose
    due times all land within one latency envelope — one
    ``loop.call_later`` per delivery is a timer storm (heap churn scales
    with messages).  The wheel quantizes due times up to the next slot
    boundary (slots are ``slot_s`` wide on the event-loop clock) and
    arms **one** timer per non-empty slot; when it fires, every delivery
    parked in the slot runs in scheduling order — which, delivery being
    pushed, is the order consumers see the slot's frames in.

    Quantization delays a delivery by strictly less than ``slot_s``.
    Deployments size slots at δ/8 — the fabric's base link latency —
    which the round structure absorbs exactly like modelled jitter
    (Δ = 3δ, the receive phase sits at 0.9 Δ).

    Each entry runs isolated: one that raises is counted in
    ``handler_errors`` and logged, and the rest of the slot still runs —
    a consumer's bug must not lose frames the model says are only ever
    delayed.

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
        #: Entries (or :meth:`call` callbacks) that raised.
        self.handler_errors = 0

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

    def call(self, callback, *args) -> None:
        """Run ``callback(*args)`` now, isolated exactly like a slot entry."""
        self._run(((callback, args),))

    def _fire(self, slot: int) -> None:
        self._handles.pop(slot, None)
        self._run(self._slots.pop(slot, ()))

    def _run(self, entries) -> None:
        for callback, args in entries:
            try:
                callback(*args)
            except Exception:
                self.handler_errors += 1
                _log.exception("delivery callback %r failed; the slot carries on", callback)

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
            self._run(self._slots.pop(min(self._slots)))

    def cancel(self) -> None:
        """Discard every pending delivery and timer."""
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()
        self._slots.clear()


class PushDelivery:
    """The delivery side both fabrics share: a slot wheel and its subscribers.

    One handler per hosted pid.  :meth:`_deliver` is what a wheel slot
    (or a socket reader) calls per frame; a frame whose pid has no
    subscriber is held — never dropped, never ``misrouted`` — and handed
    over, in arrival order, by the next :meth:`subscribe`.
    """

    def __init__(self, hosted: Iterable[int], slot_s: float) -> None:
        self.wheel = DeliveryWheel(slot_s)
        self._hosted = frozenset(hosted)
        self._handlers: dict[int, FrameHandler] = {}
        #: pid -> frames that arrived while it had no subscriber.
        self._held: dict[int, list[tuple[int, object]]] = {}

    @property
    def handler_errors(self) -> int:
        """Handler calls that raised (each cost only its own frame)."""
        return self.wheel.handler_errors

    def subscribe(self, pid: int, handler: FrameHandler) -> None:
        """Push ``pid``'s frames to ``handler``, held ones first."""
        if pid not in self._hosted:
            raise ValueError(f"pid {pid} is not hosted by this fabric")
        if pid in self._handlers:
            raise ValueError(f"pid {pid} already has a subscriber")
        self._handlers[pid] = handler
        for src, payload in self._held.pop(pid, ()):
            self.wheel.call(handler, src, payload)

    def unsubscribe(self, pid: int) -> None:
        """Forget ``pid``'s handler; frames still in flight will be held."""
        self._handlers.pop(pid, None)

    def _deliver(self, dst: int, src: int, payload: object) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            self._held.setdefault(dst, []).append((src, payload))
        else:
            handler(src, payload)

    def defer(self, delay_s: float, callback, *args) -> None:
        """Schedule ``callback`` after ``delay_s`` through the slot wheel.

        The :class:`~repro.net.proxy_transport.ProxyTransport` surge
        path routes its extra delays here so attack-delayed frames ride
        the same O(slots) timer budget as ordinary deliveries.
        """
        self.wheel.schedule(self.wheel.slot_for(delay_s), callback, *args)


class SimTransport(PushDelivery):
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
        super().__init__(range(n), slot_s if slot_s is not None else (base_latency_s or 0.0005))
        self.n = n
        self._latency = LinkLatencyModel(base_latency_s, jitter_s, seed, surges)
        self._origin: float | None = None
        self.sent_count = 0

    def start(self) -> None:
        """Anchor the clock; call once inside the loop."""
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
        self.send_many(src, (dst,), payload)

    def send_many(self, src: int, dsts: Iterable[int], payload: object) -> None:
        """Fan ``payload`` out from ``src`` to every pid in ``dsts``.

        Each destination draws its own link's latency and counts as one
        send; the fan-out's fixed costs — clock read, loop lookup — are
        paid once (this loop is the hottest of a simulated broadcast
        round).  The adversarial proxy does not forward this method; it
        decomposes fan-outs into per-frame :meth:`send` calls.
        """
        if self._origin is None:
            raise RuntimeError("transport not started")
        # One clock read serves the model time and every wheel slot.
        loop_time = asyncio.get_running_loop().time()
        at = loop_time - self._origin
        sample = self._latency.latency
        schedule = self.wheel.schedule
        slot_s = self.wheel.slot_s
        deliver = self._deliver
        for dst in dsts:
            slot = math.ceil((loop_time + sample(src, dst, at)) / slot_s)
            schedule(slot, deliver, dst, src, payload)
            self.sent_count += 1
