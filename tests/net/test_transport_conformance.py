"""Every fabric implements the one ``Transport`` data surface the same way."""

import asyncio

import pytest

from repro.attacks import AttackScript, drop, heal, partition, phase
from repro.net.proxy_transport import ProxyTransport
from repro.net.socket_transport import SocketTransport, supports_unix_sockets
from repro.net.transport import SimTransport

from tests.net.conftest import Collector

N = 4
LATENCY_S = 0.001
#: Zero jitter: arrival order is send order on every fabric.
MODEL = {"base_latency_s": LATENCY_S, "jitter_s": 0.0, "seed": 1}


def _sim():
    return SimTransport(N, slot_s=LATENCY_S / 2, **MODEL)


# Every builder subscribes first and listens second: no frame can
# precede its consumer.
async def _sim_fabric(_tmp_path):
    transport = _sim()
    inbox = Collector(transport, range(N))
    transport.start()
    return transport, inbox, None


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
    inbox = Collector(transport, range(N))
    await transport.start()
    await transport.connect()
    transport.anchor()
    return transport, inbox, transport.close


async def _quiescent_proxy(_tmp_path):
    inner = _sim()
    timeline = AttackScript(name="quiet", phases=(phase(4),)).timeline()
    proxy = ProxyTransport(inner, timeline, seed=1, round_s=0.03, base_latency_s=LATENCY_S)
    inbox = Collector(proxy, range(N))  # subscribes through to the inner fabric
    inner.start()
    return proxy, inbox, None


FABRICS = {
    "sim": _sim_fabric,
    "socket-loopback": pytest.param(
        _loopback_socket,
        marks=pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX"),
    ),
    "proxy-over-sim": _quiescent_proxy,
}


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_same_sends_same_arrivals_on_every_fabric(build, tmp_path):
    async def scenario():
        transport, inbox, close = await build(tmp_path)
        try:
            deferred = []
            assert transport.now() >= 0.0
            assert transport.latency(0, 1, 0.0) == LATENCY_S
            transport.send(0, 1, "a")
            transport.send(2, 1, "b")
            transport.send_many(3, (0, 1, 2), "c")
            transport.defer(LATENCY_S, deferred.append, "fired")
            assert transport.sent_count == 5
            assert inbox.frames == {pid: [] for pid in range(N)}

            await inbox.until(1, 3)
            await asyncio.sleep(10 * LATENCY_S)
            assert deferred == ["fired"]
            assert inbox.frames == {
                0: [(3, "c")],
                1: [(0, "a"), (2, "b"), (3, "c")],
                2: [(3, "c")],
                3: [],
            }
            # Slot order is the delivery order: the fan-out's frames
            # reach pids 0, 1, 2 in the order they were offered.
            fanout = [pid for pid, src, _ in inbox.order if src == 3]
            assert fanout == [0, 1, 2]
            assert transport.sent_count == 5

            # Unsubscribed pids hold their frames for the next subscriber.
            transport.unsubscribe(2)
            transport.send(0, 2, "held")
            await asyncio.sleep(10 * LATENCY_S)
            assert inbox.frames[2] == [(3, "c")]
            assert Collector(transport, (2,)).frames[2] == [(0, "held")]
        finally:
            if close is not None:
                await close()

    asyncio.run(scenario())


def test_send_many_through_the_proxy_is_per_frame_send_with_coins_and_partitions():
    """``send_many`` ≡ a ``send`` per destination on every fabric; through
    the proxy that means drop coins and partition holds stay per frame."""
    script = AttackScript(
        name="lossy-split",
        phases=(phase(1), phase(1, partition((0, 1), (2, 3)), drop(0, 1, 0.5)), phase(1, heal())),
    )

    async def scenario(fan_out: bool):
        inner = _sim()
        proxy = ProxyTransport(
            inner, script.timeline(), seed=3, round_s=0.03, base_latency_s=LATENCY_S
        )
        inbox = Collector(proxy, range(N))
        inner.start()
        proxy.enter_phase(1)
        for payload in range(12):
            if fan_out:
                proxy.send_many(0, (1, 2, 3), payload)
            else:
                for dst in (1, 2, 3):
                    proxy.send(0, dst, payload)
        held = proxy.held_count
        proxy.enter_phase(2)
        await asyncio.sleep(20 * LATENCY_S)
        return inbox.frames, dict(proxy.audit_totals()), held, inner.sent_count

    fanned = asyncio.run(scenario(True))
    looped = asyncio.run(scenario(False))
    assert fanned == looped
    frames, audit, held, _sent = fanned
    # Cross-partition frames were held per frame and all arrived on heal;
    # the in-group link lost some, not all, of its frames to its coins.
    assert held == audit["partitioned"] == 24
    assert len(frames[2]) == len(frames[3]) == 12
    assert 0 < audit["dropped"] < 12
    assert len(frames[1]) == 12 - audit["dropped"]
