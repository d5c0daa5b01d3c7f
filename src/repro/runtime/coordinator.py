"""The control protocol of every multi-process run, both ends of it.

One control connection per worker, framed exactly like v1 data frames
(:func:`~repro.net.socket_transport.encode_frame`):

1. worker → ``("ready", wid)`` once its listener is bound;
2. coordinator → ``("dial",)`` once *every* listener is bound;
3. worker → ``("dialed", wid)`` once its full mesh is connected;
4. coordinator → ``("start", wall_time)``.  Each worker translates the
   instant into its own loop time, so whatever it anchors there — round
   boundaries, the model's synchronized clocks — agrees across
   processes to wall-clock precision;
5. mid-run traffic either way (``("metrics", wid, snapshot)`` up,
   ``("attack_phase", index)`` down): carried here, given meaning by
   the callers' hooks;
6. worker → ``("result", wid, payload)`` when its share finishes;
7. coordinator → ``("shutdown",)``; the worker tears down and exits.

:class:`Coordinator` is the parent's end, :class:`ControlChannel` a
worker's; the sharded deployment runs on this pair.
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


def _free_tcp_address() -> tuple[str, int]:
    """A loopback TCP address that was free a moment ago (UDS fallback)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return ("127.0.0.1", address[1])


class Coordinator:
    """Spawns ``n_workers`` processes and sequences them to a result.

    ``budget_s`` bounds each phase (listener setup, mesh dialing, the
    run).  ``on_frame`` receives every inbound frame that is not one of
    the protocol's own milestones.  ``addresses`` (worker id → mesh
    listen address) and ``control_address`` exist from construction on,
    for the caller to put into its workers' arguments.
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
        self._tmpdir = tempfile.mkdtemp(prefix="repro-deploy-")
        if supports_unix_sockets():
            self.addresses: dict[int, object] = {
                wid: os.path.join(self._tmpdir, f"w{wid}.sock") for wid in range(n_workers)
            }
            self.control_address: object = os.path.join(self._tmpdir, "control.sock")
        else:
            self.addresses = {wid: _free_tcp_address() for wid in range(n_workers)}
            self.control_address = _free_tcp_address()
        self._writers: dict[int, asyncio.StreamWriter] = {}
        #: milestone → worker id → the frame's payload (if it has one).
        self._arrived: dict[str, dict[int, object]] = {tag: {} for tag in _MILESTONES}
        self._reached = {tag: asyncio.Event() for tag in _MILESTONES}
        self._failures: list[str] = []
        self._procs: list = []

    async def run(
        self,
        target: Callable,
        worker_args: Sequence[tuple],
        *,
        start_delay_s: float = 0.0,
        mid_run: Callable[[float], Awaitable] | None = None,
    ) -> list:
        """Spawn ``target(*worker_args[wid])`` per worker; return their results.

        ``mid_run(start_wall)`` runs as a task from the start barrier
        until the results are in.  A worker exiting non-zero, a torn or
        garbled control frame, or a phase over budget raises
        :class:`RuntimeError`; either way the workers and the temp dir
        are gone when this returns.
        """
        loop = asyncio.get_running_loop()
        server = await serve_stream(self.control_address, self._handle)
        ctx = multiprocessing.get_context("spawn")
        tasks = [loop.create_task(self._watch())]
        clean = False
        try:
            for args in worker_args:
                proc = ctx.Process(target=target, args=args, daemon=True)
                proc.start()
                self._procs.append(proc)
            await self._wait("ready", "listener setup")
            await self.broadcast(("dial",))
            await self._wait("dialed", "mesh dialing")
            start_wall = time.time() + start_delay_s
            await self.broadcast(("start", start_wall))
            if mid_run is not None:
                tasks.append(loop.create_task(mid_run(start_wall)))
            await self._wait("result", "the run")
            await self.broadcast(("shutdown",))
            clean = True
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            server.close()
            await server.wait_closed()
            for proc in self._procs:
                if not clean:
                    # No shutdown frame will reach it: don't sit out the
                    # grace period on a worker that is still mid-run.
                    proc.terminate()
                await loop.run_in_executor(None, proc.join, 10)
                if proc.is_alive():
                    proc.terminate()
            shutil.rmtree(self._tmpdir, ignore_errors=True)
        return [self._arrived["result"][wid] for wid in range(self.n_workers)]

    async def broadcast(self, frame: tuple) -> None:
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
        try:
            await asyncio.wait_for(self._reached[milestone].wait(), timeout=self.budget_s)
        except asyncio.TimeoutError:
            raise RuntimeError(f"workers timed out during {phase}") from None
        if self._failures:
            raise RuntimeError("; ".join(self._failures))

    async def _watch(self) -> None:
        while not self._reached["result"].is_set():
            for wid, proc in enumerate(self._procs):
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


class ControlChannel:
    """One worker's end of the control connection."""

    def __init__(self, reader, writer, worker_id: int, timeout_s: float) -> None:
        self._reader: asyncio.StreamReader = reader
        self._writer: asyncio.StreamWriter = writer
        self._worker_id = worker_id
        self._timeout_s = timeout_s

    @classmethod
    async def open(cls, address, worker_id: int, timeout_s: float = 120.0) -> ControlChannel:
        """Dial the coordinator; ``timeout_s`` bounds each handshake read."""
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

    async def join(self, transport) -> float:
        """Handshake up to the start barrier; returns its wall-clock instant.

        ``transport`` must already be listening: ready → (dial) →
        connect the mesh → dialed → (start).
        """
        await self.send("ready")
        await self._expect("dial")
        await transport.connect()
        await self.send("dialed")
        return (await self._expect("start"))[1]

    async def until_shutdown(self, on_frame: Callable[[tuple], None] | None = None) -> None:
        """Read mid-run frames into ``on_frame`` until ``shutdown`` (or EOF).

        Mid-run frames arrive while the worker is busy, so a worker
        that expects any runs this as its own task from the start
        barrier on.
        """
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame[0] == "shutdown":
                    return
                if on_frame is not None:
                    on_frame(frame)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass

    def close(self) -> None:
        """Close the connection (the coordinator reads EOF)."""
        self._writer.close()
