"""The control protocol of every deployment run, both ends of it.

A run of k workers spawns k − 1 processes: worker 0 runs on the
coordinator's own event loop, as a task beside it, and workers 1..k−1
in ``spawn``-context processes.  Every worker holds one control
connection to the coordinator, framed exactly like v1 data frames
(:func:`~repro.net.socket_transport.encode_frame`).  Worker 0's is a
pair of in-memory streams; the spawned workers' are real sockets, so a
run of one worker binds no listener, makes no temp dir and spawns
nothing.

1. worker → ``("ready", wid)`` once its listener is bound;
2. coordinator → ``("dial",)`` once *every* listener is bound;
3. worker → ``("dialed", wid)`` once its full mesh is connected;
4. coordinator → ``("start", wall_time, loop_time, listening)``: one
   instant on the wall clock and on the coordinator's loop clock, and
   whether the coordinator takes mid-run frames.  The instant is
   chosen from this run's own handshake: a few times the slowest
   dial → dialed leg just timed, so it waits for the workers, not for a
   guess.  Worker 0 shares the coordinator's loop and starts its round
   clock at the loop time itself; a spawned worker translates the wall
   time into its own loop time, so its round boundaries — the model's
   synchronized clocks, and with them every surge and attack phase —
   agree across processes to wall-clock precision.  A worker that reads
   the frame after the instant has passed starts there anyway and
   reports how late it was; it is not padded against;
5. worker → ``("metrics", wid, sample)`` while it runs, if the
   coordinator is listening: the frames go to its ``on_frame`` hook;
6. worker → ``("result", wid, payload)`` when its share finishes.
   Worker 0's frame is bare ``("result", 0)``: its result is its task's
   return value, handed over in memory, never pickled;
7. coordinator → ``("shutdown",)``; the worker tears down and exits.

:class:`Coordinator` is the parent's end, :class:`ControlChannel` a
worker's; every deployment runs on this pair.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from collections.abc import Awaitable, Callable, Sequence

from repro.net.socket_transport import (
    encode_frame,
    open_stream,
    read_frame,
    serve_stream,
    supports_unix_sockets,
)

#: Frames every worker sends exactly once, in this order.
_MILESTONES = ("ready", "dialed", "result")
#: The start instant lies this many slowest dial → dialed legs ahead.  A
#: leg is a round trip plus a mesh connect; the start frame needs one
#: way and a clock start, so the multiple is the slack.
_START_MARGIN_LEGS = 4


def _free_tcp_address() -> tuple[str, int]:
    """A loopback TCP address that was free a moment ago (UDS fallback)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return ("127.0.0.1", address[1])


class _Pipe:
    """One direction of an in-memory control connection.

    The writer surface a control end uses (``write``, ``drain``,
    ``close``) over the :attr:`reader` the other end reads.
    """

    def __init__(self) -> None:
        self.reader = asyncio.StreamReader()
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self.reader.feed_data(data)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self._closed = True
        self.reader.feed_eof()


class Coordinator:
    """Sequences ``n_workers`` workers to a result: worker 0 here, the rest spawned.

    ``budget_s`` bounds each phase (listener setup, mesh dialing, the
    run, shutdown) while a spawned worker exists.  ``on_frame`` receives every inbound frame that is
    not one of the protocol's own milestones.  ``addresses`` (worker id
    → mesh listen address) and ``control_address`` exist from
    construction on, for the caller to put into its workers' arguments;
    with one worker there is no mesh and no socket: they are ``{}`` and
    ``None``.
    """

    def __init__(
        self,
        n_workers: int,
        budget_s: float,
        on_frame: Callable[[tuple], None] | None = None,
    ) -> None:
        self.n_workers = n_workers
        self.budget_s = budget_s
        self._on_frame = on_frame
        self._tmpdir: str | None = None
        self.addresses: dict[int, object] = {}
        self.control_address: object = None
        if n_workers > 1 and supports_unix_sockets():
            self._tmpdir = tempfile.mkdtemp(prefix="repro-deploy-")
            self.addresses = {
                wid: os.path.join(self._tmpdir, f"w{wid}.sock") for wid in range(n_workers)
            }
            self.control_address = os.path.join(self._tmpdir, "control.sock")
        elif n_workers > 1:
            self.addresses = {wid: _free_tcp_address() for wid in range(n_workers)}
            self.control_address = _free_tcp_address()
        self._writers: dict[int, object] = {}
        #: milestone → worker id → the frame's payload (if it has one).
        self._arrived: dict[str, dict[int, object]] = {tag: {} for tag in _MILESTONES}
        #: milestone → worker id → loop time the frame arrived.
        self._arrived_at: dict[str, dict[int, float]] = {tag: {} for tag in _MILESTONES}
        #: How this run started, in seconds since :meth:`run` began:
        #: ``ready_s`` / ``dialed_s`` per worker, the ``margin_s`` the
        #: start instant was put ahead by, and that instant, ``setup_s``.
        self.lifecycle: dict[str, object] = {}
        self._reached = {tag: asyncio.Event() for tag in _MILESTONES}
        self._failures: list[str] = []
        self._local_error: BaseException | None = None
        #: worker id → spawned process (workers 1..k−1).
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}

    async def run(
        self, body: Callable[..., Awaitable], target: Callable, worker_args: Sequence[tuple]
    ) -> list:
        """Run every worker; return their results in worker order.

        Worker 0 is ``body(*worker_args[0], channel=...)``, a task on
        this loop handed its end of an in-memory control connection,
        whose return value is its result; worker ``wid > 0`` is
        ``target(*worker_args[wid])`` in a spawned process, which dials
        :attr:`control_address` and whose result is the payload of its
        ``result`` frame.  :attr:`lifecycle` holds the handshake's
        timings from the start barrier on.
        Worker 0 raising re-raises its own exception here; a spawned
        worker exiting non-zero, a torn or garbled control frame, or a
        phase over budget raises :class:`RuntimeError`.  Either way
        worker 0's task is finished, the spawned workers are reaped and
        the temp dir is gone when this returns.
        """
        loop = asyncio.get_running_loop()
        began = loop.time()
        tasks: list[asyncio.Task] = []
        server: asyncio.AbstractServer | None = None
        clean = False
        try:
            if self.n_workers > 1:
                server = await serve_stream(self.control_address, self._handle)
                tasks.append(loop.create_task(self._watch()))
            ctx = multiprocessing.get_context("spawn")
            # Spawn first: the children's interpreter start-up overlaps
            # with worker 0 building its shard on this loop.
            for wid in range(1, self.n_workers):
                proc = ctx.Process(target=target, args=worker_args[wid], daemon=True)
                proc.start()
                self._procs[wid] = proc
            up, down = _Pipe(), _Pipe()
            tasks.append(loop.create_task(self._handle(up.reader, down)))
            channel = _LocalChannel(down.reader, up, 0, None)
            local = loop.create_task(body(*worker_args[0], channel=channel))
            local.add_done_callback(self._local_done)
            tasks.append(local)
            await self._wait("ready", "listener setup")
            dial_sent = loop.time()
            await self._broadcast(("dial",))
            await self._wait("dialed", "mesh dialing")
            ready, dialed = (
                [self._arrived_at[tag][wid] - began for wid in range(self.n_workers)]
                for tag in ("ready", "dialed")
            )
            margin = _START_MARGIN_LEGS * (max(dialed) - (dial_sent - began))
            self.lifecycle = {
                "ready_s": ready,
                "dialed_s": dialed,
                "margin_s": margin,
                "setup_s": loop.time() - began + margin,
            }
            listening = self._on_frame is not None
            await self._broadcast(("start", time.time() + margin, loop.time() + margin, listening))
            await self._wait("result", "the run")
            await self._broadcast(("shutdown",))
            await asyncio.wait((local,), timeout=self.budget_s)
            if self._failures:
                self._raise_failures()
            if not local.done():
                raise RuntimeError("worker 0 timed out during shutdown")
            results = [local.result()]
            results += [self._arrived["result"][wid] for wid in range(1, self.n_workers)]
            clean = True
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if server is not None:
                server.close()
                await server.wait_closed()
            for proc in self._procs.values():
                if not clean:
                    # No shutdown frame will reach it: don't sit out the
                    # grace period on a worker that is still mid-run.
                    proc.terminate()
                await loop.run_in_executor(None, proc.join, 10)
                if proc.is_alive():
                    proc.terminate()
            if self._tmpdir is not None:
                shutil.rmtree(self._tmpdir, ignore_errors=True)
        return results

    async def _broadcast(self, frame: tuple) -> None:
        """Send ``frame`` to every worker that has reported ready."""
        blob = encode_frame(frame)
        for wid in sorted(self._writers):
            self._writers[wid].write(blob)
            await self._writers[wid].drain()

    def _fail(self, reason: str) -> None:
        self._failures.append(reason)
        for event in self._reached.values():
            event.set()

    async def _wait(self, milestone: str, phase: str) -> None:
        # Only a spawned worker can go silent unseen: worker 0's failure
        # is its task's exception.  So a run of one worker arms no timer,
        # and its loop's timer heap is the drive's alone.
        timeout = self.budget_s if self._procs else None
        try:
            await asyncio.wait_for(self._reached[milestone].wait(), timeout=timeout)
        except asyncio.TimeoutError:
            raise RuntimeError(f"workers timed out during {phase}") from None
        if self._failures:
            self._raise_failures()

    def _raise_failures(self) -> None:
        # Worker 0 closes its channel as it dies, so the EOF is noted
        # first; its exception, raised in this process, is the cause.
        if self._local_error is not None:
            raise self._local_error
        raise RuntimeError("; ".join(self._failures))

    def _local_done(self, task: asyncio.Task) -> None:
        if not task.cancelled() and task.exception() is not None:
            self._local_error = task.exception()
            self._fail(f"worker 0 raised {task.exception()!r}")

    async def _watch(self) -> None:
        while not self._reached["result"].is_set():
            for wid, proc in self._procs.items():
                if proc.exitcode not in (None, 0):
                    self._fail(f"worker {wid} exited with code {proc.exitcode}")
                    return
            await asyncio.sleep(0.2)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                arrived = self._arrived.get(frame[0])
                if arrived is None:
                    if self._on_frame is not None:
                        self._on_frame(frame)
                    continue
                if frame[0] == "ready":
                    self._writers[frame[1]] = writer
                self._arrived_at[frame[0]][frame[1]] = asyncio.get_running_loop().time()
                arrived[frame[1]] = frame[2] if len(frame) > 2 else None
                if len(arrived) == self.n_workers:
                    self._reached[frame[0]].set()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            if not self._reached["result"].is_set():
                self._fail("a worker's control connection closed before its result")
        except Exception as exc:  # noqa: BLE001 — a dying handler must fail the run
            # A worker killed mid-write leaves a truncated pickle frame:
            # letting the handler task die silently would hang the run
            # until the budget timeout instead of failing it promptly.
            if not self._reached["result"].is_set():
                self._fail(f"control channel failure: {exc!r}")
        finally:
            writer.close()


class ControlChannel:
    """One worker's end of the control connection."""

    #: Whether this end shares the coordinator's process and loop (worker 0).
    in_memory = False

    def __init__(self, reader, writer, worker_id: int, timeout_s: float | None) -> None:
        self._reader: asyncio.StreamReader = reader
        self._writer: asyncio.StreamWriter = writer
        self._worker_id = worker_id
        self._timeout_s = timeout_s

    @classmethod
    async def open(cls, address, worker_id: int, timeout_s: float = 120.0) -> ControlChannel:
        """Dial the coordinator; ``timeout_s`` bounds each handshake read.

        (Worker 0's in-memory end has no bound: it shares the
        coordinator's loop, which sees it fail.)
        """
        return cls(*await open_stream(address), worker_id, timeout_s)

    async def send(self, tag: str, *payload) -> None:
        """Send ``(tag, worker_id, *payload)``."""
        self._writer.write(encode_frame((tag, self._worker_id, *payload)))
        await self._writer.drain()

    async def _expect(self, tag: str) -> tuple:
        try:
            frame = await asyncio.wait_for(read_frame(self._reader), timeout=self._timeout_s)
        except asyncio.TimeoutError:
            raise RuntimeError(
                f"worker {self._worker_id}: no {tag!r} within {self._timeout_s} s"
            ) from None
        if frame[0] != tag:
            raise RuntimeError(f"worker {self._worker_id}: expected {tag!r}, got {frame[0]!r}")
        return frame

    async def join(self, transport) -> tuple[float, bool]:
        """Handshake up to the start barrier.

        ``transport`` must already be listening: ready → (dial) →
        connect the mesh → dialed → (start).  Returns the start instant
        as this loop's time, and whether the coordinator is listening
        for mid-run frames.
        """
        await self.send("ready")
        await self._expect("dial")
        await transport.connect()
        await self.send("dialed")
        _, start_wall, start_loop, listening = await self._expect("start")
        if self.in_memory:
            return start_loop, listening
        return asyncio.get_running_loop().time() + (start_wall - time.time()), listening

    async def until_shutdown(self) -> None:
        """Wait for ``shutdown`` (or EOF), however long the run takes."""
        try:
            while (await read_frame(self._reader))[0] != "shutdown":
                pass
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass

    def close(self) -> None:
        """Close the connection (the coordinator reads EOF)."""
        self._writer.close()


class _LocalChannel(ControlChannel):
    """Worker 0's end: in-memory streams on the coordinator's own loop."""

    in_memory = True
