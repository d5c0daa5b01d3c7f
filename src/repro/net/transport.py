"""The fabric: the link law's draws, entry announcements, and slot-wheel delivery.

The round simulator in :mod:`repro.sleepy` gives the adversary *logical*
control over delivery; a deployment models the physical phenomenon
behind it — latency.  Three pieces live here:

* :class:`LinkLatencyModel`, the **draws**.  A link's delay for a
  message is a pure function of the run seed, the link and the message:
  one keyed ``shake_128`` digest per message, read as one uniform per
  link of a fixed enumeration of the overlay's directed edges (every
  shard builds the same one from the seeded topology,
  :meth:`LinkLatencyModel.enumerate`).  No stream advances, so a draw
  does not depend on which message crossed a link before it, on send
  order, or on which process computes it — a sharded run draws exactly
  what the one-shard run draws.  The digest is not an identity: nothing
  dedups or keys on it.
* **Announcements**, what crosses between processes.  Every shard
  computes the whole flood from those draws (:mod:`repro.net.gossip`),
  so all another process needs to know of a message is where and when
  it entered: :meth:`Transport.announce` tells every peer process, once,
  that a message entered the flood at a pid this fabric hosts, so many
  seconds after the run's start — or, with no message, that the pid
  stopped — and :meth:`Transport.listen` hands a peer's announcements
  to the shard's flood.  In one process there is nobody to tell.
* :class:`PushDelivery`, the **point-to-point fabric**.  A frame is
  parked at the wheel slot it arrives in (:meth:`PushDelivery.park`) and
  handed to its pid's subscriber when the slot fires.  Messages are
  never dropped by the fabric, matching the paper's assumption that
  gossip survives transient asynchrony.  The fabric's own
  :meth:`PushDelivery.send` is the plain case: a frame sent now arrives
  after the link's base latency.  Only pids the fabric hosts take
  frames: nothing point-to-point crosses a process boundary.  It has no
  caller in ``src/``: the flood is computed, so no frame takes it.

Delivery is **pushed**.  A consumer registers one handler per pid
(:meth:`PushDelivery.subscribe`) and the fabric calls it, synchronously,
for every frame addressed to that pid: there is no receive call, no
queue and no task between a :class:`DeliveryWheel` slot and the
consumer.  **Slot order is the delivery order** — frames parked in one
slot reach their subscribers in the order they were parked, whoever
they are addressed to — so the order a consumer observes is a function
of the sends alone, not of which task the event loop wakes first.  A
frame for a hosted pid that has no subscriber (yet, or any more) is
held and handed over on the next ``subscribe``; a handler that raises is
counted (``handler_errors``), logged, and costs only its own frame.

A frame that can only arrive **second** is never parked: a pid that
already has *the same payload object* parked for it at a slot no later
than this frame's gets a *superseded* frame.  It counts as a send and in
``superseded``, and is not parked — but its slot is still armed as if it
had been, so the fabric's timer schedule is exactly the one without the
rule.  The rule has no off switch; a consumer that needs every copy must
send distinct objects.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import math
import struct
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Protocol

from repro.sleepy.messages import Message

_log = logging.getLogger(__name__)

#: Called with ``(source pid, payload)`` for each frame a pid receives.
FrameHandler = Callable[[int, object], None]
#: Called with ``(pid, seconds since the run's start, message)`` for each
#: announcement from a peer process; the message is ``None`` for a stop.
EntryHandler = Callable[[int, float, object], None]


class Transport(Protocol):
    """What the flood needs of a fabric.

    Implemented by :class:`SimTransport` (one process, in memory) and
    :class:`~repro.net.socket_transport.SocketTransport` (one shard of a
    socket mesh).  An attack script is no fabric: its
    :meth:`~repro.net.proxy_transport.ProxyTransport.fate` is handed to
    the flood beside the fabric.  Lifecycle (start/connect/close) is
    deliberately not part of it: only whoever builds a fabric calls it.
    """

    #: The pids this fabric hosts.
    hosted: frozenset[int]
    #: The run's link draws.
    links: LinkLatencyModel

    @property
    def slot_s(self) -> float:
        """Width of a delivery slot, in loop seconds: the hop law's grid."""

    def announce(self, pid: int, elapsed: float, message: Message | None) -> None:
        """Tell every peer process that ``message`` entered the flood at
        hosted ``pid``, ``elapsed`` seconds after the run's start
        (``None``: that ``pid`` stopped then)."""

    def listen(self, handler: EntryHandler) -> None:
        """Hand every peer process's announcement to ``handler(pid,
        elapsed, message)``, in the order each peer sent them."""


def draw_key(message: Message) -> bytes:
    """The bytes a message's link draws are keyed by: its content key, spelled out.

    A content key is a flat tuple of ``int`` / ``str`` / ``None`` fields
    (:attr:`~repro.sleepy.messages.Message.content_key`), so its ``repr``
    is the same in every process and under every hash seed.
    """
    return repr(message.content_key).encode()


class LinkLatencyModel:
    """The run's link draws: keyed by message, indexed by link.

    :meth:`draw` is one message's draws, ``shake_128("link:<seed>:" +
    key)`` read as one little-endian 4-byte word per link of the
    enumeration; :meth:`delays` turns them into ``base + u × jitter``
    for every link, ``u`` the word over 2³² (uniform on ``[0, 1)``).
    The caller multiplies a delay by the surge in force.  :meth:`coins`
    are every link's drop coins, from a second digest under
    ``"coin:<seed>:"``.  Zero jitter hashes nothing: every word is zero
    and every delay the base latency.  :attr:`digests` counts the draws'
    digests computed and :attr:`coin_digests` the coins'.
    """

    def __init__(self, base_latency_s: float, jitter_s: float, seed: int) -> None:
        if base_latency_s < 0 or jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        self.base = base_latency_s
        self.jitter = jitter_s
        self._delay_prefix = hashlib.shake_128(f"link:{seed}:".encode())
        self._coin_prefix = hashlib.shake_128(f"coin:{seed}:".encode())
        #: ``(src, dst)`` -> the link's index (:meth:`enumerate`).
        self.edges: Mapping[tuple[int, int], int] = {}
        self._words = struct.Struct("<0I")
        self._still = b""
        #: Draw digests computed: one per message per shard whose flood
        #: has a frame computed node by node (a flood filed whole and
        #: settled so draws none).
        self.digests = 0
        #: Coin digests computed: one per message per shard whose flood
        #: has a frame meet a lossy link while it is in flight.
        self.coin_digests = 0

    def enumerate(self, topology: Mapping[int, Sequence[int]]) -> None:
        """Index the directed edges of ``topology``: ``(src, dst)`` in
        ascending order of ``src``, then ``dst``.

        ``topology`` is the whole overlay, so every shard of a run
        numbers every link alike.
        """
        links = [(src, dst) for src in sorted(topology) for dst in sorted(topology[src])]
        self.edges = {link: index for index, link in enumerate(links)}
        self._words = struct.Struct(f"<{len(links)}I")
        self._still = bytes(self._words.size)

    def draw(self, key: bytes) -> bytes:
        """The draws of the message keyed ``key``: 4 bytes per link."""
        if self.jitter == 0.0:
            return self._still
        self.digests += 1
        return self._digest(self._delay_prefix, key)

    def delays(self, drawn: bytes) -> list[float]:
        """The unscaled delay of every link, from a message's :meth:`draw`."""
        base, scale = self.base, self.jitter / 2**32
        return [base + word * scale for word in self._words.unpack(drawn)]

    def coins(self, key: bytes) -> list[float]:
        """Every link's drop coin, uniform on ``[0, 1)``, for the message keyed ``key``."""
        self.coin_digests += 1
        return [word / 2**32 for word in self._words.unpack(self._digest(self._coin_prefix, key))]

    def _digest(self, prefix, key: bytes) -> bytes:
        digest = prefix.copy()
        digest.update(key)
        return digest.digest(self._words.size)


#: One link's word in a draw (at byte ``4 × link``), for a reader of one link.
WORD = struct.Struct("<I")


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
    Deployments size slots at δ/16, half the modelled jitter width,
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
    """What both fabrics share: a slot wheel, its subscribers, the run's
    draws and the flood's listener.

    :meth:`park` is every point-to-point frame's one door: it applies
    the supersession rule (module docstring), then schedules the frame
    on the wheel.  One handler per hosted pid: :meth:`_deliver` is what
    a wheel slot calls per frame; a frame whose pid has no subscriber is
    held — never dropped — and handed over, in arrival order, by the
    next :meth:`subscribe`.  The lifecycle is one too: :meth:`start`
    binds, :meth:`connect` dials and :meth:`close` tears down; in memory
    none of them has anything to do, and neither has :meth:`announce`.
    :attr:`links` is the run's :class:`LinkLatencyModel`, which the flood
    draws from, and :meth:`_hand_over` passes a peer's announcement to
    the listener, isolated like a slot entry.
    """

    def __init__(
        self, n: int, hosted: Iterable[int], slot_s: float, links: LinkLatencyModel
    ) -> None:
        self.wheel = DeliveryWheel(slot_s)
        self.hosted = frozenset(hosted)
        self.links = links
        self._handlers: dict[int, FrameHandler] = {}
        #: pid -> frames that arrived while it had no subscriber.
        self._held: dict[int, list[tuple[int, object]]] = {}
        #: dst -> ``{id(payload): slot}`` of the earliest frame parked for
        #: dst with that payload object.  A parked frame pins its payload,
        #: and the entry goes when a frame of it fires, so an ``id`` is
        #: never reused while its entry lives.
        self._parked: list[dict[int, int]] = [{} for _ in range(n)]
        #: The flood's handler for peer announcements (:meth:`listen`).
        self._listener: EntryHandler | None = None
        #: Frames sent through this fabric: parked, and announcements
        #: (one per peer process).
        self.sent_count = 0
        #: Frames not parked: the same object was parked for their pid
        #: at a slot no later than theirs, so they could only arrive second.
        self.superseded = 0

    @property
    def slot_s(self) -> float:
        """Width of a delivery slot, in loop seconds."""
        return self.wheel.slot_s

    @property
    def handler_errors(self) -> int:
        """Handler calls that raised (each cost only its own frame)."""
        return self.wheel.handler_errors

    async def start(self) -> None:
        """Bind what the fabric listens on: nothing, in memory."""

    async def connect(self) -> None:
        """Dial the fabric's peers: none, in memory."""

    async def close(self) -> None:
        """Tear down: what is still parked is discarded, nobody else awaits it."""
        self.cancel()

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst`` now: a fan-out of one (see :meth:`send_many`)."""
        self.send_many(src, (dst,), payload)

    def send_many(self, src: int, dsts: Sequence[int], payload: object) -> None:
        """Send ``payload`` from ``src`` to every pid in ``dsts`` now.

        Each frame arrives in the slot the link's base latency reaches
        (:meth:`park`).  Jitter, surges and attack effects are the
        flood's, which computes its frames' slots itself.
        """
        slot = math.ceil((asyncio.get_running_loop().time() + self.links.base) / self.wheel.slot_s)
        self.park(src, payload, [(dst, slot) for dst in dsts])

    def park(self, src: int, payload: object, frames: Sequence[tuple[int, int]]) -> None:
        """Deliver ``payload`` from ``src`` to each hosted ``dst`` of
        ``frames``, ``[(dst, slot)]``, at loop time ``slot × slot_s``.

        A frame behind the same object parked for its pid at a slot no
        later is superseded — counted, not parked, its slot armed all the
        same, so the wheel keeps exactly the timers it would have had and
        a loop clock that advances timer by timer (a virtual one)
        accumulates the same instants.  A pid this fabric does not host
        is refused before anything is parked.
        """
        foreign = [dst for dst, _ in frames if dst not in self.hosted]
        if foreign:
            raise ValueError(f"pids {foreign} are not hosted by this fabric")
        wheel = self.wheel
        parked = self._parked
        key = id(payload)
        for dst, slot in frames:
            table = parked[dst]
            first = table.get(key)
            if first is not None and first <= slot:
                self.superseded += 1
                if slot not in wheel._slots:  # the common case needs no call
                    wheel.arm(slot)
                continue
            table[key] = slot
            wheel.schedule(slot, self._deliver, dst, src, payload)
        self.sent_count += len(frames)

    def announce(self, pid: int, elapsed: float, message: Message | None) -> None:
        """Tell every peer process of an entry or a stop: in memory there is none."""

    def listen(self, handler: EntryHandler) -> None:
        """Hand every peer announcement to ``handler`` (the last one given)."""
        self._listener = handler

    def _hand_over(self, pid: int, elapsed: float, message: object) -> None:
        """A peer's announcement reaches this process: the listener (the
        shard's flood, which listens before the fabric starts) takes it
        now, a raise counted in ``handler_errors`` like a slot entry's."""
        if self._listener is not None:
            self.wheel.call(self._listener, pid, elapsed, message)

    def subscribe(self, pid: int, handler: FrameHandler) -> None:
        """Push ``pid``'s frames to ``handler``, held ones first."""
        if pid not in self.hosted:
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

    def _forget_parked(self) -> None:
        for table in self._parked:
            table.clear()

    def _deliver(self, dst: int, src: int, payload: object) -> None:
        """A frame reaches hosted ``dst``: it is handed over (or held).

        Called when a wheel slot fires a parked frame: a copy of
        ``payload`` parked for ``dst`` stops superseding.
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
