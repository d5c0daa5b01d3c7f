"""Every fabric implements the one ``Transport`` data surface the same way."""

import asyncio

import pytest

from repro.attacks import AttackScript, phase
from repro.net.proxy_transport import ProxyTransport
from repro.net.socket_transport import SocketTransport, supports_unix_sockets
from repro.net.transport import SimTransport

N = 4
LATENCY_S = 0.001
#: Zero jitter: arrival order is send order on every fabric.
MODEL = {"base_latency_s": LATENCY_S, "jitter_s": 0.0, "seed": 1}


async def _sim(_tmp_path):
    transport = SimTransport(N, slot_s=LATENCY_S / 2, **MODEL)
    transport.start()
    return transport, None


async def _loopback_socket(tmp_path):
    """One worker hosting every pid: the whole mesh is its own loopback."""
    transport = SocketTransport(
        N,
        local_pids=range(N),
        owner={pid: 0 for pid in range(N)},
        worker_id=0,
        addresses={0: str(tmp_path / "w0.sock")},
        **MODEL,
    )
    await transport.start()
    await transport.connect()
    transport.anchor()
    return transport, transport.close


async def _quiescent_proxy(tmp_path):
    inner, _ = await _sim(tmp_path)
    timeline = AttackScript(name="quiet", phases=(phase(4),)).timeline()
    return ProxyTransport(inner, timeline, seed=1, round_s=0.03, base_latency_s=LATENCY_S), None


FABRICS = {
    "sim": _sim,
    "socket-loopback": pytest.param(
        _loopback_socket,
        marks=pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX"),
    ),
    "proxy-over-sim": _quiescent_proxy,
}


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_same_sends_same_arrivals_on_every_fabric(build, tmp_path):
    async def scenario():
        transport, close = await build(tmp_path)
        try:
            deferred = []
            assert transport.now() >= 0.0
            assert transport.latency(0, 1, 0.0) == LATENCY_S
            assert transport.recv_nowait(1) is None
            transport.send(0, 1, "a")
            transport.send(2, 1, "b")
            transport.send_many(3, (0, 1, 2), "c")
            transport.defer(LATENCY_S, deferred.append, "fired")
            assert transport.sent_count == 5

            # recv waits for the first arrival; the rest of the burst is
            # already there for recv_nowait to drain.
            first = await asyncio.wait_for(transport.recv(1), timeout=2.0)
            await asyncio.sleep(10 * LATENCY_S)
            assert deferred == ["fired"]
            assert transport.queue_depths() == {0: 1, 1: 2, 2: 1, 3: 0}
            arrivals = {pid: [] for pid in range(N)}
            arrivals[1].append(first)
            for pid in range(N):
                while (frame := transport.recv_nowait(pid)) is not None:
                    arrivals[pid].append(frame)
            assert arrivals == {
                0: [(3, "c")],
                1: [(0, "a"), (2, "b"), (3, "c")],
                2: [(3, "c")],
                3: [],
            }
            assert transport.queue_depths() == {pid: 0 for pid in range(N)}
            assert transport.sent_count == 5
        finally:
            if close is not None:
                await close()

    asyncio.run(scenario())
