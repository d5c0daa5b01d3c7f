"""Asyncio transport: pushed delivery, latency, the surge factor."""

import asyncio
import logging
import random

import pytest

from repro.net.transport import DeliveryWheel, LinkLatencyModel, SimTransport

from tests.net.conftest import Collector, run_virtual


def run(coro):
    return asyncio.run(coro)


def test_messages_arrive_in_order_per_link():
    async def scenario():
        transport = SimTransport(2, base_latency_s=0.001, jitter_s=0.0, seed=0)
        inbox = Collector(transport, (1,))
        for i in range(5):
            transport.send(0, 1, i)
        return await inbox.until(1, 5)

    received = run(scenario())
    assert received == [(0, i) for i in range(5)]


def test_latency_follows_the_surge_factor_in_force():
    transport = SimTransport(2, base_latency_s=0.010, jitter_s=0.0, seed=0)
    assert transport.latency(0, 1) == pytest.approx(0.010)
    transport.surge(10.0)
    assert transport.latency(0, 1) == pytest.approx(0.100)
    transport.surge(1.0)
    assert transport.latency(0, 1) == pytest.approx(0.010)


def test_a_surge_slows_later_sends_not_frames_already_parked():
    """The factor is read at send: a frame parked before the surge keeps
    its slot, one sent after it waits ``factor`` times as long."""

    async def scenario():
        transport = SimTransport(2, base_latency_s=0.004, jitter_s=0.0, seed=0, slot_s=0.001)
        loop = asyncio.get_running_loop()
        arrivals = []
        transport.subscribe(1, lambda src, payload: arrivals.append((payload, loop.time())))
        transport.send(0, 1, "before")
        transport.surge(5.0)
        transport.send(0, 1, "after")
        while transport.wheel.pending:
            await asyncio.sleep(transport.wheel.slot_s)
        return arrivals

    (first, at_first), (second, at_second) = run_virtual(scenario())
    assert (first, second) == ("before", "after")
    assert (at_first, at_second) == pytest.approx((0.004, 0.020))


def test_jitter_is_seeded():
    a = SimTransport(2, base_latency_s=0.001, jitter_s=0.005, seed=3)
    b = SimTransport(2, base_latency_s=0.001, jitter_s=0.005, seed=3)
    assert [a.latency(0, 1) for _ in range(5)] == [b.latency(0, 1) for _ in range(5)]


def test_latency_streams_are_per_link_and_order_independent():
    """Regression: a shared RNG made latencies depend on global send order.

    The k-th sample on a link must be identical no matter how sends on
    *other* links interleave with it — otherwise asyncio scheduler
    jitter changes the sampled latencies between runs of one deployment.
    """
    links = [(0, 1), (1, 0), (0, 2), (2, 1)]
    a = LinkLatencyModel(0.001, 0.005, seed=7)
    b = LinkLatencyModel(0.001, 0.005, seed=7)

    interleaved: dict[tuple[int, int], list[float]] = {link: [] for link in links}
    for k in range(6):  # round-robin across links
        for link in links:
            interleaved[link].append(a.latency(*link))

    grouped: dict[tuple[int, int], list[float]] = {link: [] for link in links}
    for link in reversed(links):  # one link at a time, opposite order
        for k in range(6):
            grouped[link].append(b.latency(*link))

    assert interleaved == grouped
    # Distinct links (including the two directions of a pair) draw
    # distinct streams rather than aliasing one sequence.
    assert interleaved[(0, 1)] != interleaved[(1, 0)]


def test_wheel_pending_counts_frames_in_flight():
    """What ``ShardRuntime.sample()["transport"]["in_flight"]`` reads."""

    async def scenario():
        transport = SimTransport(2, base_latency_s=0.001, jitter_s=0.0, seed=0)
        inbox = Collector(transport, (1,))
        transport.send(0, 1, "x")
        transport.send(0, 1, "y")
        in_flight = transport.wheel.pending
        await inbox.until(1, 2)
        return in_flight, transport.wheel.pending

    assert run(scenario()) == (2, 0)


def test_surged_message_is_delayed_not_dropped():
    async def scenario():
        transport = SimTransport(2, base_latency_s=0.005, jitter_s=0.0, seed=0)
        inbox = Collector(transport, (1,))
        transport.surge(20.0)
        transport.send(0, 1, "slow")  # 0.1 s latency under the surge
        with pytest.raises(asyncio.TimeoutError):
            await inbox.until(1, 1, timeout=0.04)
        return await inbox.until(1, 1, timeout=0.2)

    assert run(scenario()) == [(0, "slow")]


def test_counts_sent_messages():
    async def scenario():
        transport = SimTransport(3)
        transport.send(0, 1, "a")
        transport.send(0, 2, "b")
        return transport.sent_count

    assert run(scenario()) == 2


def test_validation():
    with pytest.raises(ValueError):
        SimTransport(0)
    with pytest.raises(ValueError):
        SimTransport(2, base_latency_s=-1.0)


# ----------------------------------------------------------------------
# Subscriptions: hold, hand-over, isolation
# ----------------------------------------------------------------------
def test_frames_for_an_unsubscribed_pid_are_held_until_subscribe():
    async def scenario():
        transport = SimTransport(2, base_latency_s=0.0, jitter_s=0.0, seed=0, slot_s=0.001)
        transport.send(0, 1, "a")
        transport.send(0, 1, "b")
        while transport.wheel.pending:
            await asyncio.sleep(transport.wheel.slot_s)
        # Both slots fired with nobody listening: held, in arrival order,
        # and handed over by the subscription itself.
        inbox = Collector(transport, (1,))
        assert inbox.frames[1] == [(0, "a"), (0, "b")]
        # Unsubscribing holds again; a fresh subscriber picks up from there.
        transport.unsubscribe(1)
        transport.send(0, 1, "c")
        while transport.wheel.pending:
            await asyncio.sleep(transport.wheel.slot_s)
        assert inbox.frames[1] == [(0, "a"), (0, "b")]
        late = Collector(transport, (1,))
        assert late.frames[1] == [(0, "c")]

    run(scenario())


def test_subscribe_rejects_foreign_pids_and_second_subscribers():
    transport = SimTransport(2)
    with pytest.raises(ValueError, match="not hosted"):
        transport.subscribe(2, print)
    transport.subscribe(1, print)
    with pytest.raises(ValueError, match="already has a subscriber"):
        transport.subscribe(1, print)


def test_a_raising_subscriber_costs_its_own_frame_only(caplog):
    """A consumer exception must not stop dissemination: the slot carries
    on, the failure is counted and logged, and the next frame arrives."""

    async def scenario():
        transport = SimTransport(3, base_latency_s=0.001, jitter_s=0.0, seed=0)
        got = []

        def fragile(src, payload):
            if not got:
                got.append("raised")
                raise RuntimeError("consumer bug")
            got.append(payload)

        transport.subscribe(1, fragile)
        bystander = Collector(transport, (2,))
        # No await between the sends: all four frames share a slot.
        transport.send_many(0, (1, 2), "x")
        transport.send_many(0, (1, 2), "y")
        await bystander.until(2, 2)
        assert got == ["raised", "y"]
        assert transport.handler_errors == 1
        # Teardown's flush isolates the same way.
        transport.unsubscribe(1)
        transport.subscribe(1, lambda src, payload: 1 / 0)
        transport.send(0, 1, "y")
        transport.send(0, 2, "z")
        transport.wheel.flush()
        assert transport.handler_errors == 2
        assert bystander.frames[2][-1] == (0, "z")

    with caplog.at_level(logging.ERROR, logger="repro.net.transport"):
        run(scenario())
    assert sum("delivery callback" in r.getMessage() for r in caplog.records) == 2


# ----------------------------------------------------------------------
# DeliveryWheel
# ----------------------------------------------------------------------
def test_wheel_coalesces_deliveries_into_slot_timers():
    async def scenario():
        wheel = DeliveryWheel(0.005)
        fired = []
        slot = wheel.slot_for(0.001)
        for i in range(25):
            wheel.schedule(slot, fired.append, i)
        assert wheel.timers_created == 1
        assert wheel.scheduled_count == 25
        assert wheel.pending == 25
        await asyncio.sleep(0.02)
        # One loop timer ran every parked delivery, in schedule order.
        assert fired == list(range(25))
        assert wheel.pending == 0

    run(scenario())


def test_wheel_flush_runs_pending_slots_earliest_first():
    async def scenario():
        wheel = DeliveryWheel(1.0)  # slots far in the future: nothing fires
        fired = []
        late, early = wheel.slot_for(5.0), wheel.slot_for(2.0)
        wheel.schedule(late, fired.append, "late")
        wheel.schedule(early, fired.append, "early")
        wheel.flush()
        assert fired == ["early", "late"]
        assert wheel.pending == 0

    run(scenario())


def test_wheel_cancel_drops_pending_deliveries():
    async def scenario():
        wheel = DeliveryWheel(0.001)
        fired = []
        wheel.schedule(wheel.slot_for(0.001), fired.append, "x")
        wheel.cancel()
        await asyncio.sleep(0.01)
        assert fired == [] and wheel.pending == 0

    run(scenario())


# ----------------------------------------------------------------------
# The slot-wheel delivery path and fan-out surface
# ----------------------------------------------------------------------
def test_sim_transport_delivers_through_the_wheel():
    async def scenario():
        transport = SimTransport(3, base_latency_s=0.001, jitter_s=0.0, seed=0, slot_s=0.002)
        inbox = Collector(transport, (1, 2))
        for i in range(10):
            transport.send(0, 1, i)
            transport.send(0, 2, i)
        assert await inbox.until(1, 10) == [(0, i) for i in range(10)]
        assert await inbox.until(2, 10) == [(0, i) for i in range(10)]
        # 20 deliveries shared O(slots) timers.
        assert transport.wheel.scheduled_count == 20
        assert transport.wheel.timers_created <= 3

    run(scenario())


def test_send_many_matches_per_send_semantics():
    async def scenario():
        # Same seed and jitter: a fan-out must consume the same
        # per-link latency streams as the equivalent send loop.
        loop_sent = SimTransport(4, base_latency_s=0.001, jitter_s=0.002, seed=7)
        fanout = SimTransport(4, base_latency_s=0.001, jitter_s=0.002, seed=7)
        loop_inbox = Collector(loop_sent, (1, 2, 3))
        fanout_inbox = Collector(fanout, (1, 2, 3))
        for dst in (1, 2, 3):
            loop_sent.send(0, dst, "x")
        fanout.send_many(0, (1, 2, 3), "x")
        assert fanout.sent_count == loop_sent.sent_count == 3
        for dst in (1, 2, 3):
            assert await loop_inbox.until(dst, 1) == [(0, "x")]
            assert await fanout_inbox.until(dst, 1) == [(0, "x")]
        # Streams advanced identically: the next draw per link matches.
        for dst in (1, 2, 3):
            assert loop_sent.latency(0, dst) == fanout.latency(0, dst)

    run(scenario())


def test_slot_order_is_the_delivery_order_across_pids():
    """Frames of one slot reach their subscribers in scheduling order,
    interleaved across pids — not pid by pid.  On the virtual clock: a
    real one can tick between the six sends and split them over two slots."""

    async def scenario():
        transport = SimTransport(3, base_latency_s=0.001, jitter_s=0.0, seed=0)
        inbox = Collector(transport, (1, 2))
        for payload, dst in enumerate((1, 2, 1, 2, 2, 1)):
            transport.send(0, dst, payload)
        assert transport.wheel.timers_created == 1
        while transport.wheel.pending:
            await asyncio.sleep(transport.wheel.slot_s)
        assert [(pid, payload) for pid, _, payload in inbox.order] == [
            (1, 0),
            (2, 1),
            (1, 2),
            (2, 3),
            (2, 4),
            (1, 5),
        ]

    run_virtual(scenario())


def test_zero_jitter_latency_skips_the_stream_but_matches_it():
    # The fast path must return exactly what the stream would have.
    fast = LinkLatencyModel(0.003, 0.0, seed=1)
    slow = LinkLatencyModel(0.003, 1e-12, seed=1)
    for _ in range(3):
        assert fast.latency(0, 1) == 0.003
        assert abs(slow.latency(0, 1) - 0.003) < 1e-9
    # The surge factor still applies on the fast path.
    surged = LinkLatencyModel(0.003, 0.0, seed=1)
    surged.factor = 10.0
    assert surged.latency(0, 1) == 0.03


def test_a_fan_out_draws_what_one_draw_per_link_would_to_the_bit():
    """One pass per fan-out: each link's k-th draw, times the surge factor
    in force, exactly as drawn one by one."""
    model = LinkLatencyModel(0.001, 0.004, seed=9)
    streams = {dst: random.Random(f"link:9:2:{dst}") for dst in (0, 1, 3, 5)}
    for factor in (1.0, 3.0, 1.7, 1.0):
        model.factor = factor
        expected = [(0.001 + streams[dst].random() * 0.004) * factor for dst in (0, 1, 3, 5)]
        assert model.draws(2, (0, 1, 3, 5)) == expected
    # ``latency`` is the one-destination case, on the same streams.
    assert model.latency(2, 3) == (0.001 + streams[3].random() * 0.004) * 1.0
