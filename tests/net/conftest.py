"""What the transport tests share: a collecting subscriber, a fabric with no
links, and a virtual clock."""

from __future__ import annotations

import asyncio
import functools
import selectors
from collections.abc import Iterable


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

    def subscribe(self, pid: int, handler) -> None:
        pass

    def send_many(self, src: int, dsts, payload, skip: int = 0) -> None:
        pass


def tap_arrivals(network, record) -> None:
    """Call ``record(pid, src, message)`` at every first arrival at a node of
    ``network``, publishes (``src`` ``None``) included, after the node
    ingested it.

    A network hands its consumer a message once per shard; a test that
    follows each node re-subscribes the node's ingest behind a counter
    check.  The nodes' own accounting is untouched.
    """
    for node in network.nodes.values():
        ingest = node._ingest

        def tapped(src, message, node=node, ingest=ingest):
            before = node.stats["delivered"]
            try:
                ingest(src, message)
            finally:
                if node.stats["delivered"] > before:
                    record(node.pid, src, message)

        node._ingest = tapped
        node._transport.unsubscribe(node.pid)
        node._transport.subscribe(node.pid, tapped)


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
