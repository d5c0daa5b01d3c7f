"""Every fabric implements the one point-to-point surface (``PushDelivery``) the same way."""

import asyncio
import math

import pytest

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
# precede its consumer.  Each returns the fabric under test, its inbox,
# its teardown, and the fabric that parks frames (itself).
async def _sim_fabric(_tmp_path):
    transport = _sim()
    inbox = Collector(transport, range(N))
    return transport, inbox, None, transport


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
    return transport, inbox, transport.close, transport


FABRICS = {
    "sim": _sim_fabric,
    "socket-loopback": pytest.param(
        _loopback_socket,
        marks=pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX"),
    ),
}


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_same_sends_same_arrivals_on_every_fabric(build, tmp_path):
    async def scenario():
        transport, inbox, close, _fabric = await build(tmp_path)
        try:
            transport.send(0, 1, "a")
            transport.send(2, 1, "b")
            transport.send_many(3, (0, 1, 2), "c")
            assert transport.sent_count == 5
            assert inbox.frames == {pid: [] for pid in range(N)}

            await inbox.until(1, 3)
            await asyncio.sleep(10 * LATENCY_S)
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


def _on_every_fabric(build, tmp_path, check):
    async def scenario():
        transport, inbox, close, fabric = await build(tmp_path)
        try:
            await check(transport, inbox, fabric)
        finally:
            if close is not None:
                await close()

    asyncio.run(scenario())


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_a_copy_that_can_only_arrive_second_is_delivered_once(build, tmp_path):
    """The same object offered again to a pid, due no earlier than the
    copy already parked for it, is sent and counted — never delivered."""

    async def check(transport, inbox, fabric):
        payload = ["m"]
        transport.send(0, 1, payload)
        transport.send(2, 1, payload)  # another source: still the same object
        transport.send_many(3, (1, 2), payload)
        assert transport.sent_count == 4
        assert fabric.superseded == 2
        await inbox.until(2, 1)
        await asyncio.sleep(10 * LATENCY_S)
        # The first copy offered is the one delivered, source included.
        assert inbox.frames[1] == [(0, payload)]
        assert inbox.frames[2] == [(3, payload)]
        # Once it has fired, nothing is in flight to supersede by.
        transport.send(3, 1, payload)
        await inbox.until(1, 2)
        assert inbox.frames[1][-1] == (3, payload)
        assert fabric.superseded == 2

    _on_every_fabric(build, tmp_path, check)


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_a_later_copy_that_lands_earlier_is_parked(build, tmp_path):
    """A copy sent after a surge lands before the one sent into it: both
    are parked, and they arrive in landing order."""

    async def check(transport, inbox, fabric):
        payload = ["m"]
        late = math.ceil((asyncio.get_running_loop().time() + 0.2) / fabric.slot_s)
        transport.park(0, payload, [(1, late)])  # lands after ~200 ms
        transport.send(2, 1, payload)  # lands in ~1 ms
        assert fabric.superseded == 0
        assert await inbox.until(1, 2) == [(2, payload), (0, payload)]

    _on_every_fabric(build, tmp_path, check)


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_equal_content_in_distinct_objects_is_never_superseded(build, tmp_path):
    """Supersession is by object, not content: deduplicating is the
    consumer's business."""

    async def check(transport, inbox, fabric):
        first, twin = ["m"], ["m"]
        transport.send(0, 1, first)
        transport.send(0, 1, twin)
        assert fabric.superseded == 0
        frames = await inbox.until(1, 2)
        assert frames == [(0, first), (0, twin)]
        assert frames[0][1] is first and frames[1][1] is twin

    _on_every_fabric(build, tmp_path, check)


@pytest.mark.parametrize("build", FABRICS.values(), ids=FABRICS.keys())
def test_nothing_supersedes_after_flush_or_cancel(build, tmp_path):
    async def check(transport, inbox, fabric):
        flushed, cancelled = ["flushed"], ["cancelled"]
        transport.send(0, 1, flushed)
        fabric.flush()
        assert inbox.frames[1] == [(0, flushed)]
        transport.send(0, 1, flushed)
        transport.send(0, 2, cancelled)
        fabric.cancel()
        assert fabric.wheel.pending == 0
        transport.send(0, 2, cancelled)
        assert fabric.superseded == 0
        assert await inbox.until(2, 1) == [(0, cancelled)]
        await asyncio.sleep(10 * LATENCY_S)
        # The copy re-sent after the flush was cancelled with the wheel.
        assert inbox.frames[1] == [(0, flushed)]
        assert inbox.frames[2] == [(0, cancelled)]

    _on_every_fabric(build, tmp_path, check)
