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
# import them.  Worker 0 runs an ``async`` body on the coordinator's
# loop, handed its in-memory end of the control connection.
def _exits_nonzero(_control_address, _worker_id, _dial_delay_s):
    raise SystemExit(3)


def _writes_garbage(control_address, _worker_id, _dial_delay_s):
    with socket.socket(socket.AF_UNIX) as sock:
        sock.connect(control_address)
        sock.sendall(struct.pack(">I", 5) + b"junk!")
        time.sleep(30)  # alive and silent: only the garbage can fail the run


async def _behaves(control_address, worker_id, dial_delay_s=0.0, *, channel=None):
    # A spawned worker dials and ships its result; worker 0's is its return value.
    ship = channel is None
    if ship:
        channel = await ControlChannel.open(control_address, worker_id, timeout_s=20.0)
    mesh = _NoMesh(dial_delay_s)
    origin, listening = await channel.join(mesh)
    await channel.send("note", "hello")
    result = {
        "worker": worker_id,
        "in_memory": channel.in_memory,
        "dialed_wall": mesh.dialed_wall,
        # This loop's start instant, back on the wall clock to compare.
        "start_wall": origin - asyncio.get_running_loop().time() + time.time(),
        "listening": listening,
    }
    await channel.send("result", *((result,) if ship else ()))
    await channel.until_shutdown()
    channel.close()
    return result


def _well_behaved(control_address, worker_id, dial_delay_s=0.0):
    asyncio.run(_behaves(control_address, worker_id, dial_delay_s))


async def _raises_mid_run(control_address, worker_id, _dial_delay_s, *, channel):
    try:
        await channel.join(_NoMesh())
        raise ValueError("the local shard broke")
    finally:
        channel.close()


def _run(body, target, n_workers=2, dial_delays=(), on_frame=None):
    """Run the stubs; worker ``wid`` dials for ``dial_delays[wid]`` s (default 0)."""

    async def scenario():
        coordinator = Coordinator(n_workers, budget_s=30.0, on_frame=on_frame)
        delays = dict(enumerate(dial_delays))
        return await coordinator.run(
            body,
            target,
            [(coordinator.control_address, wid, delays.get(wid, 0.0)) for wid in range(n_workers)],
        )

    return asyncio.run(scenario())


@pytest.mark.parametrize(
    "body, target, error, reason",
    [
        (_behaves, _exits_nonzero, RuntimeError, "worker 1 exited with code 3"),
        (_behaves, _writes_garbage, RuntimeError, "control channel failure"),
        # Worker 0's own exception, raised in this process, is the cause.
        (_raises_mid_run, _well_behaved, ValueError, "^the local shard broke$"),
    ],
)
def test_a_broken_worker_fails_the_run_promptly(body, target, error, reason):
    """At wid 0 (a task on the coordinator's loop) as at wid 1 (spawned)."""
    started = time.monotonic()
    with pytest.raises(error, match=reason):
        _run(body, target)
    assert time.monotonic() - started < 3.0
    assert multiprocessing.active_children() == []


def test_handshake_result_and_the_frame_hook_round_trip():
    notes = []
    results = _run(_behaves, _well_behaved, n_workers=3, on_frame=notes.append)
    assert sorted(notes) == [("note", wid, "hello") for wid in range(3)]
    # Worker order, whichever way each result arrived.
    assert [result["worker"] for result in results] == [0, 1, 2]
    assert [result["in_memory"] for result in results] == [True, False, False]
    for result in results:
        # Every worker started at the same instant: worker 0 on the
        # coordinator's loop clock, the spawned ones through the wall
        # clock.  A coordinator with a hook is listening.
        assert result["start_wall"] == pytest.approx(results[0]["start_wall"], abs=1e-3)
        assert result["listening"] is True


@pytest.mark.parametrize("slow_wid", [0, 1])
def test_the_start_instant_follows_the_handshake_it_timed(slow_wid):
    """A few slowest legs ahead: a worker that dials d late moves the start
    at least d past its ``dialed``; prompt workers start within ms of theirs."""
    dial_delay_s = 0.1
    prompt = _run(_behaves, _well_behaved)
    assert 0.0 <= prompt[0]["start_wall"] - max(r["dialed_wall"] for r in prompt) < 0.05
    # Nobody takes mid-run frames: no worker is told to send any.
    assert [result["listening"] for result in prompt] == [False, False]
    delays = [0.0, 0.0]
    delays[slow_wid] = dial_delay_s
    slow = _run(_behaves, _well_behaved, dial_delays=delays)
    assert slow[0]["start_wall"] - slow[slow_wid]["dialed_wall"] >= dial_delay_s


def test_one_worker_is_a_task_with_no_socket_and_no_timer():
    """Worker 0 alone: no listener, no temp dir, no child, and nothing on
    the loop's timer heap, which is the drive's alone."""
    timers = []

    async def scenario():
        coordinator = Coordinator(1, budget_s=30.0)
        assert (coordinator.addresses, coordinator.control_address) == ({}, None)

        async def body(*_args, channel):
            loop = asyncio.get_running_loop()
            joining = loop.time()
            origin, listening = await channel.join(_NoMesh())
            timers.append(len(loop._scheduled))
            await channel.send("result")
            await channel.until_shutdown()
            channel.close()
            return origin, joining, listening

        return await coordinator.run(body, _exits_nonzero, [()])

    # The start instant is a few in-memory legs after the join began:
    # never before it, and soon after it.
    [(origin, joining, listening)] = asyncio.run(scenario())
    assert 0.0 <= origin - joining < 0.05 and listening is False
    assert timers == [0]
    assert multiprocessing.active_children() == []


def test_a_worker_that_reads_start_late_reports_it(monkeypatch):
    """A late start is not padded against: it is the loop's round-0
    start lateness, merged into ``extras["histograms"]``.  A loaded host
    may wake other phases late too, so only the injected lateness is
    asserted exactly."""
    from repro.engine.deploy_backend import DeploymentBackend
    from repro.engine.spec import RunSpec
    from repro.runtime.metrics import MetricsHub

    late_s = 0.05
    join = ControlChannel.join

    async def late_join(self, transport):
        joined = await join(self, transport)
        await asyncio.sleep(late_s)
        return joined

    observed: list[float] = []
    observe = MetricsHub.observe

    def watched(self, name, value):
        if name == "phase_lateness_s":
            observed.append(value)
        observe(self, name, value)

    # Both reach worker 0 only: a spawned worker imports its own.
    monkeypatch.setattr(ControlChannel, "join", late_join)
    monkeypatch.setattr(MetricsHub, "observe", watched)
    spec = RunSpec(n=4, rounds=4, protocol="resilient", eta=2, seed=0)
    result = DeploymentBackend(delta_s=0.05, processes=2).execute(spec)
    margin_s = result.extras["lifecycle"]["margin_s"]
    # Worker 0's round-0 start is the injected lateness.
    assert late_s - margin_s <= observed[0] < late_s + 0.05
    lateness = result.extras["histograms"]["phase_lateness_s"]
    assert lateness["max"] >= late_s - margin_s
    buckets = lateness["buckets"]
    assert sum(count for bound, count in buckets.items() if float(bound) > 0.0256) >= 1
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
