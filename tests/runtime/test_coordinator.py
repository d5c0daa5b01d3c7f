"""The control protocol's two ends: fail fast, never hang, carry hooks."""

import asyncio
import multiprocessing
import socket
import struct
import tempfile
import time

import pytest

from repro.net.socket_transport import encode_frame, serve_stream, supports_unix_sockets
from repro.runtime.coordinator import ControlChannel, Coordinator

pytestmark = pytest.mark.skipif(
    not supports_unix_sockets(), reason="the stub workers dial an AF_UNIX control socket"
)


class _NoMesh:
    """A transport with nobody to dial, taking ``dial_delay_s`` to do it."""

    def __init__(self, dial_delay_s=0.0):
        self.dial_delay_s = dial_delay_s
        self.dialed_wall = None

    async def connect(self):
        await asyncio.sleep(self.dial_delay_s)
        self.dialed_wall = time.time()


# Spawn targets (workers 1..k−1): module-level so the spawn context can
# import them.  Worker 0 runs an ``async`` body on the coordinator's loop.
def _exits_nonzero(_control_address, _worker_id, _dial_delay_s):
    raise SystemExit(3)


def _writes_garbage(control_address, _worker_id, _dial_delay_s):
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(control_address)
        sock.sendall(struct.pack(">I", 5) + b"junk!")
        time.sleep(30)  # alive and silent: only the garbage can fail the run


async def _behaves(control_address, worker_id, dial_delay_s=0.0, ship=False):
    channel = await ControlChannel.open(control_address, worker_id, timeout_s=20.0)
    mesh = _NoMesh(dial_delay_s)
    start_wall = await channel.join(mesh)
    nudges = []
    pump = asyncio.ensure_future(channel.until_shutdown(nudges.append))
    await channel.send("note", "hello")
    while not nudges:
        await asyncio.sleep(0.01)
    result = {
        "worker": worker_id,
        "dialed_wall": mesh.dialed_wall,
        "start_wall": start_wall,
        "nudges": nudges,
    }
    # A spawned worker ships its result; worker 0's is its return value.
    await channel.send("result", *((result,) if ship else ()))
    await pump
    channel.close()
    return result


def _well_behaved(control_address, worker_id, dial_delay_s=0.0):
    asyncio.run(_behaves(control_address, worker_id, dial_delay_s, ship=True))


async def _raises_mid_run(control_address, worker_id, _dial_delay_s):
    channel = await ControlChannel.open(control_address, worker_id, timeout_s=20.0)
    try:
        await channel.join(_NoMesh())
        raise ValueError("the local shard broke")
    finally:
        channel.close()


def _run(body, target, n_workers=2, dial_delays=(), **hooks):
    """Run the stubs; worker ``wid`` dials for ``dial_delays[wid]`` s (default 0)."""

    async def scenario():
        coordinator = Coordinator(n_workers, budget_s=30.0, on_frame=hooks.get("on_frame"))
        mid_run = hooks.get("mid_run")
        delays = dict(enumerate(dial_delays))
        return await coordinator.run(
            body,
            target,
            [(coordinator.control_address, wid, delays.get(wid, 0.0)) for wid in range(n_workers)],
            mid_run=(lambda wall: mid_run(coordinator, wall)) if mid_run else None,
        )

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "body, target, reason",
    [
        (_behaves, _exits_nonzero, "worker 1 exited with code 3"),
        (_behaves, _writes_garbage, "control channel failure"),
        (_raises_mid_run, _well_behaved, r"worker 0 raised ValueError\('the local shard broke'\)"),
    ],
)
def test_a_broken_worker_fails_the_run_promptly(body, target, reason):
    """At wid 0 (a task on the coordinator's loop) as at wid 1 (spawned)."""
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=reason):
        _run(body, target)
    assert time.monotonic() - started < 3.0
    assert multiprocessing.active_children() == []


async def _nudge(coordinator, start_wall):
    await coordinator.broadcast(("nudge", start_wall))


def test_handshake_result_and_both_hooks_round_trip():
    notes = []
    before = time.time()
    results = _run(_behaves, _well_behaved, n_workers=3, on_frame=notes.append, mid_run=_nudge)
    assert sorted(notes) == [("note", wid, "hello") for wid in range(3)]
    # Worker order, whichever way each result arrived.
    assert [result["worker"] for result in results] == [0, 1, 2]
    for result in results:
        # Every worker was handed the same start instant, and the
        # mid-run task's broadcast reached it after the barrier.
        assert result["start_wall"] == results[0]["start_wall"] >= before
        assert result["nudges"] == [("nudge", result["start_wall"])]


@pytest.mark.parametrize("slow_wid", [0, 1])
def test_the_start_instant_follows_the_handshake_it_timed(slow_wid):
    """A few slowest legs ahead: a worker that dials d late moves the start
    at least d past its ``dialed``; prompt workers start within ms of theirs."""
    dial_delay_s = 0.1
    prompt = _run(_behaves, _well_behaved, mid_run=_nudge)
    assert 0.0 <= prompt[0]["start_wall"] - max(r["dialed_wall"] for r in prompt) < 0.05
    delays = [0.0, 0.0]
    delays[slow_wid] = dial_delay_s
    slow = _run(_behaves, _well_behaved, dial_delays=delays, mid_run=_nudge)
    assert slow[0]["start_wall"] - slow[slow_wid]["dialed_wall"] >= dial_delay_s


def test_a_worker_that_reads_start_late_reports_it(monkeypatch):
    """Lateness is measured where the worker anchors, not padded against,
    and reaches ``extras["lifecycle"]`` and the ``start_lateness_ms`` gauge."""
    from repro.engine.deploy_backend import DeploymentBackend
    from repro.engine.spec import RunSpec

    late_s = 0.05
    join = ControlChannel.join

    async def late_join(self, transport):
        start_wall = await join(self, transport)
        await asyncio.sleep(late_s)
        return start_wall

    # Reaches worker 0 only: a spawned worker imports its own.
    monkeypatch.setattr(ControlChannel, "join", late_join)
    spec = RunSpec(n=4, rounds=4, protocol="resilient", eta=2, seed=0)
    result = DeploymentBackend(delta_s=0.05, processes=2).execute(spec)
    lifecycle = result.extras["lifecycle"]
    late, prompt = lifecycle["start_lateness_s"]
    assert late_s - lifecycle["margin_s"] <= late < late_s + 0.05
    assert prompt < late
    gauges = result.extras["metrics"]["gauges"]
    assert gauges["worker0.start_lateness_ms"] == late * 1e3
    assert result.trace.decisions


def test_a_control_listener_that_cannot_bind_leaks_no_temp_dir(tmp_path, monkeypatch):
    """The bind is inside the cleanup: the error propagates, the dir goes."""
    # 90 characters and more: ".../repro-deploy-XXXXXXXX/control.sock"
    # no longer fits a sockaddr_un path.
    long_tmp = tmp_path / ("x" * max(1, 90 - len(str(tmp_path)) - 1))
    long_tmp.mkdir()
    assert len(str(long_tmp)) >= 90
    monkeypatch.setattr(tempfile, "tempdir", str(long_tmp))
    with pytest.raises(OSError, match="too long"):
        _run(_behaves, _well_behaved)
    assert list(long_tmp.iterdir()) == []
    assert multiprocessing.active_children() == []


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
