"""In-memory asyncio transport with per-link latencies and delay surges.

The round simulator in :mod:`repro.sleepy` gives the adversary *logical*
control over delivery; this transport models the physical phenomenon
behind it — latency.  Each link has a seeded base latency plus jitter,
times the fabric's **surge factor** (a real-world asynchronous period:
the network is slow, not lossy).  The fabric keeps no clock of its own:
a shard's round loop sets the factor of each round it wakes for
(:meth:`PushDelivery.surge`), so a declared period surges exactly its
rounds.  Messages are never dropped, matching the paper's assumption
that gossip survives transient asynchrony.

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

A frame that can only arrive **second** is never parked.  Two kinds
exist, and the fabric is the one place that elides both:

* a pid set in ``send_many``'s ``skip`` bitmask already holds the
  payload (gossip passes a shard's co-located holders): it is offered
  the frame — its link draws its latency — and gets none;
* a pid that already has *the same payload object* parked for it at a
  slot no later than this frame's: the new frame is *superseded*.  It
  draws, counts as a send and in ``superseded``, and is not parked —
  but its slot is still armed as if it had been, so the fabric's timer
  schedule is exactly the one without the rule.

Slot order is delivery order, so the frame already parked is delivered
first: every first arrival, its source, its order and every per-link
draw are what they would have been, and only frames a deduplicating
consumer would have thrown away are removed.  The rule has no off
switch; a consumer that needs every copy must send distinct objects.
"""

from __future__ import annotations

import asyncio
import logging
import math
import random
from collections.abc import Callable, Iterable, Sequence
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
    holds all three to it.  Lifecycle (start/connect/close) and the
    surge factor are deliberately not part of it: only whoever builds a
    fabric calls them, through :class:`PushDelivery`'s one surface (in
    memory, there is nothing to bind or dial).
    """

    #: Sends initiated through this fabric so far.
    sent_count: int

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst``; it arrives after the link latency."""

    def send_many(self, src: int, dsts: Sequence[int], payload: object, skip: int = 0) -> None:
        """Offer ``payload`` to every pid in ``dsts``; each link draws once.

        A pid whose bit is set in ``skip`` already holds the payload and
        gets no frame; every other pid is sent one, as by :meth:`send`.
        """

    def defer(self, delay_s: float, callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay_s`` on the fabric's timer budget."""

    def subscribe(self, pid: int, handler: FrameHandler) -> None:
        """Push every frame addressed to hosted ``pid`` to ``handler(src, payload)``.

        Frames that arrived while ``pid`` had no subscriber are handed
        over first, in arrival order.
        """

    def unsubscribe(self, pid: int) -> None:
        """Stop pushing to ``pid``'s handler; later arrivals are held."""

    def latency(self, src: int, dst: int) -> float:
        """Sampled one-way latency for ``src → dst`` now."""


class LinkLatencyModel:
    """Seeded per-link latency streams shared by every transport flavour.

    One ordered ``(src, dst)`` pair → one :class:`random.Random` stream,
    seeded from ``(seed, src, dst)`` content (string seeding hashes via
    SHA-512, so streams are identical across processes and hash seeds —
    a sharded multi-process deployment draws exactly the latencies the
    single-process run would).  Every draw is multiplied by
    :attr:`factor`, the surge in force (1.0: none).
    """

    def __init__(self, base_latency_s: float, jitter_s: float, seed: int) -> None:
        if base_latency_s < 0 or jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        self._base = base_latency_s
        self._jitter = jitter_s
        self._seed = seed
        #: The latency multiplier in force (set by :meth:`PushDelivery.surge`).
        self.factor = 1.0
        #: src -> dst -> that link's stream.
        self._link_rngs: dict[int, dict[int, random.Random]] = {}

    def latency(self, src: int, dst: int) -> float:
        """Sampled one-way latency for the ``src → dst`` link."""
        return self.draws(src, (dst,))[0]

    def draws(self, src: int, dsts: Sequence[int]) -> list[float]:
        """The next latency of each ``src → dst`` link, in ``dsts`` order.

        One pass per fan-out: the source's streams are looked up once,
        and the surge factor is applied exactly as a draw per link would.
        """
        factor = self.factor
        base, jitter = self._base, self._jitter
        if jitter == 0.0:
            # Zero-jitter links are deterministic: every draw is the
            # base latency regardless of stream state, so skip the
            # per-link streams entirely on this hot path.
            if factor != 1.0:
                base *= factor
            return [base] * len(dsts)
        streams = self._link_rngs.get(src)
        if streams is None:
            streams = self._link_rngs[src] = {}
        # Explicit loops: at a fan-out's few links they beat comprehensions.
        delays = []
        for dst in dsts:
            rng = streams.get(dst)
            if rng is None:
                rng = streams[dst] = random.Random(f"link:{self._seed}:{src}:{dst}")
            delays.append(base + rng.random() * jitter)
        if factor != 1.0:
            for i, delay in enumerate(delays):
                delays[i] = delay * factor
        return delays


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

    def arm(self, slot: int) -> list[tuple]:
        """Arm ``slot``'s timer if it is not armed yet; its entry list."""
        entries = self._slots.get(slot)
        if entries is None:
            entries = self._slots[slot] = []
            loop = asyncio.get_running_loop()
            self._handles[slot] = loop.call_at(slot * self.slot_s, self._fire, slot)
            self.timers_created += 1
        return entries

    def schedule(self, slot: int, callback, *args) -> None:
        """Park ``callback(*args)`` in ``slot``, arming its timer if new."""
        entries = self._slots.get(slot)
        if entries is None:
            entries = self.arm(slot)
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
    """What both fabrics share: the link model, the send pass, a slot wheel
    and its subscribers.

    :meth:`send_many` is every send's one pass: it draws each offered
    link, applies ``skip`` and the supersession rule (module docstring),
    parks each local frame left and hands each remote one to
    :meth:`_send_remote`.  One handler per hosted pid: :meth:`_deliver`
    is what a wheel slot (or a socket reader) calls per frame; a frame
    whose pid has no subscriber is held — never dropped, never
    ``misrouted`` — and handed over, in arrival order, by the next
    :meth:`subscribe`.  The lifecycle is one too: :meth:`start` binds,
    :meth:`connect` dials and :meth:`close` tears down; in memory none
    of them has anything to do.  :meth:`surge` is the fabric's one
    setting, driven by its shard's round loop.
    """

    def __init__(
        self, n: int, hosted: Iterable[int], slot_s: float, latency: LinkLatencyModel
    ) -> None:
        self.wheel = DeliveryWheel(slot_s)
        self._hosted = frozenset(hosted)
        self._latency = latency
        self._handlers: dict[int, FrameHandler] = {}
        #: pid -> frames that arrived while it had no subscriber.
        self._held: dict[int, list[tuple[int, object]]] = {}
        #: dst -> ``{id(payload): slot}`` of the earliest frame parked for
        #: dst with that payload object.  A parked frame pins its payload,
        #: and the entry goes when a frame of it fires, so an ``id`` is
        #: never reused while its entry lives.
        self._parked: list[dict[int, int]] = [{} for _ in range(n)]
        #: Sends initiated through this fabric (local + remote).
        self.sent_count = 0
        #: Frames not parked: the same object was parked for their pid
        #: at a slot no later than theirs, so they could only arrive second.
        self.superseded = 0

    @property
    def handler_errors(self) -> int:
        """Handler calls that raised (each cost only its own frame)."""
        return self.wheel.handler_errors

    def surge(self, factor: float) -> None:
        """Multiply every latency drawn from now on by ``factor`` (1.0: none).

        A shard's round loop sets it on waking for each round, before
        any send, so every shard of a run surges the same rounds.
        """
        self._latency.factor = factor

    async def start(self) -> None:
        """Bind what the fabric listens on: nothing, in memory."""

    async def connect(self) -> None:
        """Dial the fabric's peers: none, in memory."""

    async def close(self) -> None:
        """Tear down: what is still parked is discarded, nobody else awaits it."""
        self.cancel()

    def latency(self, src: int, dst: int) -> float:
        """Sampled one-way latency for ``src → dst`` now (per-link stream)."""
        return self._latency.latency(src, dst)

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst``: a fan-out of one (see :meth:`send_many`)."""
        self.send_many(src, (dst,), payload)

    def send_many(self, src: int, dsts: Sequence[int], payload: object, skip: int = 0) -> None:
        """Offer ``payload`` from ``src`` to every pid in ``dsts``.

        Every link draws (one :meth:`LinkLatencyModel.draws` pass); a
        pid in ``skip`` gets no frame; every other one counts as a send.
        A frame behind the same object parked for its pid at a slot no
        later is superseded — counted, not parked, its slot armed all the
        same, so the wheel keeps exactly the timers it would have had and
        a loop clock that advances timer by timer (a virtual one)
        accumulates the same instants.  The fan-out's fixed costs — clock
        read and stream lookup — are paid once: this is the hottest loop
        of a deployment's broadcast round.  The adversarial proxy does
        not forward this method; it decomposes fan-outs into per-frame
        :meth:`send` calls.
        """
        # One clock read serves every wheel slot.
        loop_time = asyncio.get_running_loop().time()
        delays = self._latency.draws(src, dsts)
        wheel = self.wheel
        slot_s, ceil = wheel.slot_s, math.ceil
        parked = self._parked
        key = id(payload)
        sent = 0
        remote = None
        for dst, delay in zip(dsts, delays):
            if skip >> dst & 1:
                continue
            sent += 1
            slot = ceil((loop_time + delay) / slot_s)
            table = parked[dst]
            first = table.get(key)
            if first is not None and first <= slot:
                self.superseded += 1
                if slot not in wheel._slots:  # the common case needs no call
                    wheel.arm(slot)
                continue
            table[key] = slot
            if dst in self._hosted:
                wheel.schedule(slot, self._deliver, dst, src, payload)
            elif remote is None:
                remote = [(dst, slot)]
            else:
                remote.append((dst, slot))
        self.sent_count += sent
        if remote is not None:
            self._send_remote(src, payload, remote)

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

    def flush(self) -> None:
        """Run every pending delivery now, earliest slot first (teardown)."""
        self.wheel.flush()
        self._forget_parked()

    def cancel(self) -> None:
        """Discard every pending delivery: nothing parked supersedes any more."""
        self.wheel.cancel()
        self._forget_parked()

    def defer(self, delay_s: float, callback, *args) -> None:
        """Schedule ``callback`` after ``delay_s`` through the slot wheel.

        The :class:`~repro.net.proxy_transport.ProxyTransport` surge
        path routes its extra delays here so attack-delayed frames ride
        the same O(slots) timer budget as ordinary deliveries.
        """
        self.wheel.schedule(self.wheel.slot_for(delay_s), callback, *args)

    def _send_remote(self, src: int, payload: object, frames: list[tuple[int, int]]) -> None:
        """Route one fan-out's frames for pids other processes host.

        ``frames`` is ``[(dst, slot)]``.  Each frame's supersession entry
        is already recorded; whoever sends it pops the entry
        (``self._parked[dst]``) when the frame leaves.
        """
        raise ValueError(f"pids {[dst for dst, _ in frames]} are not hosted by this fabric")

    def _forget_parked(self) -> None:
        for table in self._parked:
            table.clear()

    def _deliver(self, dst: int, src: int, payload: object) -> None:
        """A frame reaches hosted ``dst``: it is handed over (or held).

        Called when a wheel slot fires a parked frame, and per frame a
        socket reader decodes.  Either way a copy of ``payload`` parked
        for ``dst`` stops superseding — exact for the frame firing, and
        only ever conservative for a frame read off the wire.
        """
        self._parked[dst].pop(id(payload), None)
        handler = self._handlers.get(dst)
        if handler is None:
            self._held.setdefault(dst, []).append((src, payload))
        else:
            handler(src, payload)


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
        slot_s: float | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one node")
        super().__init__(
            n,
            range(n),
            slot_s if slot_s is not None else (base_latency_s or 0.0005),
            LinkLatencyModel(base_latency_s, jitter_s, seed),
        )
        self.n = n
