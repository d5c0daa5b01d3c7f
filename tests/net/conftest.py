"""What the transport tests share: a collecting subscriber, a fabric with no
links, a clock that stands still, and a virtual clock."""

from __future__ import annotations

import asyncio
import functools
import selectors
from collections.abc import Iterable

from repro.net.transport import LinkLatencyModel
from repro.runtime.clock import RoundClock


class Collector:
    """Subscribes to ``pids`` and records every ``(src, payload)`` pushed to each.

    Delivery is pushed, so a test does not *receive*: it sends, lets the
    loop run, and reads :attr:`frames` — :meth:`until` is the bounded
    wait for a frame count.
    """

    def __init__(self, transport, pids: Iterable[int]) -> None:
        self.frames: dict[int, list[tuple[int, object]]] = {pid: [] for pid in pids}
        #: Every push as ``(pid, src, payload)``, in the order the fabric made them.
        self.order: list[tuple[int, int, object]] = []
        for pid in self.frames:
            transport.subscribe(pid, functools.partial(self._on_frame, pid))

    def _on_frame(self, pid: int, src: int, payload: object) -> None:
        self.frames[pid].append((src, payload))
        self.order.append((pid, src, payload))

    async def until(self, pid: int, count: int, timeout: float = 2.0) -> list[tuple[int, object]]:
        """The first ``count`` frames pushed to ``pid`` (``TimeoutError`` if fewer arrive)."""
        async with asyncio.timeout(timeout):
            while len(self.frames[pid]) < count:
                await asyncio.sleep(0.0005)
        return self.frames[pid][:count]


class NoLinks:
    """A fabric for gossip nodes without neighbours: what a node ingests
    is exactly what it was handed."""

    def __init__(self, hosted: Iterable[int]) -> None:
        self.hosted = frozenset(hosted)
        self.links = LinkLatencyModel(0.001, 0.0, seed=0)
        self.slot_s = 0.001

    def announce(self, pid: int, elapsed: float, message) -> None:
        pass

    def listen(self, handler) -> None:
        pass


class StillClock(RoundClock):
    """A round clock whose loop time is :attr:`time`, set by the test: no
    event loop needed."""

    def __init__(self, delta_s: float = 0.01) -> None:
        super().__init__(delta_s)
        self.start_at(0.0)
        self.time = 0.0

    def now(self) -> float:
        return self.time


def no_surge(_round: int) -> float:
    """A flood's surge schedule with no surge."""
    return 1.0


class _StoppedAt:
    """A network's round clock, read as if it stood at one instant."""

    def __init__(self, clock, at: float) -> None:
        self._clock, self._at = clock, at

    def now(self) -> float:
        return self._at

    def __getattr__(self, name):
        return getattr(self._clock, name)


def tap_arrivals(network, record) -> None:
    """Call ``record(pid, message, at)`` for every first arrival ``at`` that
    ``network`` files at one of its nodes, in instant order, as it files
    them (publishes included).

    A shard settles computed frames in instant order once its clock has
    reached them (:meth:`~repro.net.gossip.GossipNetwork.catch_up`) and
    keeps only whom they reached; the tap catches the network up one
    instant at a time, so that what each step settles arrived at that
    instant.  A flood the network filed whole is one the tap must look
    inside: it steps to the flood's earliest second arrival, which has
    the network compute it node by node from there (the entry node,
    holding the message from its entry on, is filed at its entry).  The
    nodes' own accounting is untouched.
    """
    index = network.seen.arrivals
    messages: dict = {}
    for node in network.nodes.values():
        ingest = node._ingest

        def tapped_ingest(message, ingest=ingest):
            messages.setdefault(getattr(message, "content_key", None), message)
            ingest(message)

        node._ingest = tapped_ingest
    enter = network._enter

    def tapped_enter(pid, elapsed, message):
        messages.setdefault(getattr(message, "content_key", None), message)
        enter(pid, elapsed, message)

    network._enter = tapped_enter
    network.transport.listen(tapped_enter)
    catch_up, clock = network.catch_up, network.clock
    pending, summaries = network._pending, network._summaries
    #: key -> ``(arrivals, held bits)`` as of the last look.
    looked: dict = {}

    def newly_held():
        new = []
        for key, arrivals in index.items():
            known, bits = looked.get(key, (None, 0))
            fresh = arrivals.held & ~bits if known is arrivals else arrivals.held
            looked[key] = (arrivals, arrivals.held)
            new += [(pid, key) for pid in range(fresh.bit_length()) if fresh >> pid & 1]
        return new

    def tapped_catch_up(until=None):
        now = clock.now() if until is None else min(until, clock.now())
        # Only a flood filed whole sets a bit outside a catch-up: its
        # entry's, at the instant it entered, which is now.
        entered = newly_held()
        while True:
            due = [heap[0][0] for heap in (pending, summaries) if heap and heap[0][0] <= now]
            if entered and (not due or min(due) >= now):
                for pid, key in entered:
                    record(pid, messages[key], now)
                entered = []
            if not due:
                return now
            at = min(due)
            network.clock = _StoppedAt(clock, at)
            try:
                catch_up()
            finally:
                network.clock = clock
            for pid, key in newly_held():
                record(pid, messages[key], at)

    network.catch_up = tapped_catch_up


def ignore(message, key) -> None:
    """A gossip admission callback that keeps nothing."""


# ----------------------------------------------------------------------
# A virtual clock, so a test can predict delivery slots exactly
# ----------------------------------------------------------------------
class _JumpingSelector(selectors.DefaultSelector):
    """Polls without waiting; an idle wait jumps the loop clock instead."""

    def __init__(self, jump) -> None:
        super().__init__()
        self._jump = jump

    def select(self, timeout=None):
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            raise RuntimeError("virtual-clock loop is idle with no timer: it would block forever")
        self._jump()
        return events


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock starts at 0.0 and jumps *exactly* to the next timer.

    Timers fire in due-time order with no real waiting, and
    ``loop.time()`` inside a timer is that timer's ``when`` to the bit —
    so ``DeliveryWheel`` slot arithmetic can be replayed outside the
    loop.  (``bench/vtime.py`` is the benchmark's own, additive, copy of
    the idea; tests may not import from ``bench/``.)
    """

    def __init__(self) -> None:
        self._now = 0.0
        super().__init__(_JumpingSelector(self._jump))

    def time(self) -> float:
        return self._now

    def _jump(self) -> None:
        # ``_run_once`` has already dropped cancelled timers off the heap top.
        self._now = self._scheduled[0].when()


def run_virtual(coroutine):
    """Run ``coroutine`` to completion on a fresh :class:`VirtualClockLoop`."""
    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        return runner.run(coroutine)
