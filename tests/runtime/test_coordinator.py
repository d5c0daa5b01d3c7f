"""The control protocol's two ends: fail fast, never hang, carry hooks."""

import asyncio
import socket
import struct
import time

import pytest

from repro.net.socket_transport import encode_frame, serve_stream, supports_unix_sockets
from repro.runtime.coordinator import ControlChannel, Coordinator

pytestmark = pytest.mark.skipif(
    not supports_unix_sockets(), reason="the stub workers dial an AF_UNIX control socket"
)


class _NoMesh:
    """A transport with nobody to dial."""

    async def connect(self):
        pass


# Spawn targets: module-level so the spawn context can import them.
def _exits_nonzero(_control_address, _worker_id):
    raise SystemExit(3)


def _writes_garbage(control_address, _worker_id):
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(control_address)
        sock.sendall(struct.pack(">I", 5) + b"junk!")
        time.sleep(30)  # alive and silent: only the garbage can fail the run


def _well_behaved(control_address, worker_id):
    async def body():
        channel = await ControlChannel.open(control_address, worker_id, timeout_s=20.0)
        start_wall = await channel.join(_NoMesh())
        nudges = []
        pump = asyncio.ensure_future(channel.until_shutdown(nudges.append))
        await channel.send("note", "hello")
        while not nudges:
            await asyncio.sleep(0.01)
        await channel.send("result", {"start_wall": start_wall, "nudges": nudges})
        await pump
        channel.close()

    asyncio.run(body())


def _run(target, n_workers=1, **hooks):
    async def scenario():
        coordinator = Coordinator(n_workers, budget_s=30.0, on_frame=hooks.get("on_frame"))
        mid_run = hooks.get("mid_run")
        return await coordinator.run(
            target,
            [(coordinator.control_address, wid) for wid in range(n_workers)],
            mid_run=(lambda wall: mid_run(coordinator, wall)) if mid_run else None,
        )

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "target, reason",
    [(_exits_nonzero, "exited with code 3"), (_writes_garbage, "control channel failure")],
)
def test_a_broken_worker_fails_the_run_promptly(target, reason):
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=reason):
        _run(target)
    assert time.monotonic() - started < 3.0


def test_handshake_result_and_both_hooks_round_trip():
    notes = []

    async def nudge(coordinator, start_wall):
        await coordinator.broadcast(("nudge", start_wall))

    before = time.time()
    results = _run(_well_behaved, n_workers=2, on_frame=notes.append, mid_run=nudge)
    assert sorted(notes) == [("note", 0, "hello"), ("note", 1, "hello")]
    assert len(results) == 2
    for result in results:
        # Every worker was handed the same start instant, and the
        # mid-run task's broadcast reached it after the barrier.
        assert result["start_wall"] == results[0]["start_wall"] >= before
        assert result["nudges"] == [("nudge", result["start_wall"])]


@pytest.mark.parametrize(
    "reply, error",
    [(("start", 0.0), "expected 'dial', got 'start'"), (None, "no 'dial' within")],
)
def test_join_raises_a_real_error_on_a_wrong_or_missing_frame(tmp_path, reply, error):
    """Not an ``assert`` (gone under ``-O``), and never an unbounded read."""
    address = str(tmp_path / "c.sock")

    async def scenario():
        async def bad_coordinator(reader, writer):
            if reply is not None:
                writer.write(encode_frame(reply))
            await reader.read()  # hold the connection open

        server = await serve_stream(address, bad_coordinator)
        try:
            channel = await ControlChannel.open(address, 7, timeout_s=0.2)
            with pytest.raises(RuntimeError, match=error):
                await channel.join(_NoMesh())
            channel.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
