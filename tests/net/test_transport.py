"""Asyncio transport: pushed delivery, the slot wheel, the link draws."""

import asyncio
import logging
import math
import statistics

import pytest

from repro.crypto.signatures import KeyRegistry
from repro.net.gossip import GossipNetwork, SeenIndex, regular_topology
from repro.net.transport import DeliveryWheel, LinkLatencyModel, SimTransport, draw_key
from repro.sleepy.messages import make_vote

from tests.net.conftest import Collector, StillClock, ignore, run_virtual, tap_arrivals


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


def test_wheel_pending_counts_frames_in_flight():
    """The wheel counts the frames parked and not yet handed over."""

    async def scenario():
        transport = SimTransport(2, base_latency_s=0.001, jitter_s=0.0, seed=0)
        inbox = Collector(transport, (1,))
        transport.send(0, 1, "x")
        transport.send(0, 1, "y")
        in_flight = transport.wheel.pending
        await inbox.until(1, 2)
        return in_flight, transport.wheel.pending

    assert run(scenario()) == (2, 0)


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


# ----------------------------------------------------------------------
# The link draws: keyed by message, indexed by link
# ----------------------------------------------------------------------
_REGISTRY = KeyRegistry(12, run_seed=0)
_TOPOLOGY = regular_topology(12, 4, seed=1)


def _model(seed=9, base=0.001, jitter=0.004):
    model = LinkLatencyModel(base, jitter, seed=seed)
    model.enumerate(_TOPOLOGY)
    return model


def _keys(count):
    """Draw keys of ``count`` distinct votes."""
    return [
        draw_key(make_vote(_REGISTRY, _REGISTRY.secret_key(i % 12), i // 12, None))
        for i in range(count)
    ]


def test_the_overlay_enumeration_numbers_directed_edges_in_order():
    model = _model()
    links = [(src, dst) for src in range(12) for dst in _TOPOLOGY[src]]
    assert model.edges == {link: index for index, link in enumerate(links)}
    assert len(model.edges) == 12 * 4


def test_link_draws_are_uniform_on_base_plus_jitter():
    """Binned χ² over 12,000 draws (250 messages × 48 links) at a fixed
    seed: ten equal bins of ``[base, base + jitter)``, nine degrees of
    freedom, below the 0.999 quantile (27.88)."""
    base, jitter = 0.001, 0.004
    model = _model(base=base, jitter=jitter)
    draws = [d for key in _keys(250) for d in model.delays(model.draw(key))]
    assert len(draws) == 12_000
    assert all(base <= d < base + jitter for d in draws)
    counts = [0] * 10
    for d in draws:
        counts[int((d - base) / jitter * 10)] += 1
    expected = len(draws) / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 27.88, counts
    assert model.digests == 250


def test_jitter_is_seeded():
    """Two fabrics of one seed draw one message's delays alike; a fabric
    of another seed draws them otherwise."""
    key = _keys(1)[0]
    drawn = []
    for seed in (3, 3, 4):
        links = SimTransport(12, base_latency_s=0.001, jitter_s=0.005, seed=seed).links
        links.enumerate(_TOPOLOGY)
        drawn.append(links.delays(links.draw(key)))
    assert drawn[0] == drawn[1]
    assert drawn[2] != drawn[0]
    assert len(set(drawn[0])) > 1  # jitter on: the links differ


def test_one_messages_links_are_independent_and_order_free():
    """Across messages, no two links of the overlay draw alike (their
    correlation is noise), and a draw is the same whatever was drawn
    before it, in whichever model instance."""
    keys = _keys(400)
    model = _model()
    table = [model.delays(model.draw(key)) for key in keys]
    columns = list(zip(*table))
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            assert abs(statistics.correlation(columns[i], columns[j])) < 0.2, (i, j)
    # Reversed order, a fresh model: the very same values.
    fresh = _model()
    assert [fresh.delays(fresh.draw(key)) for key in reversed(keys)] == table[::-1]
    # Another seed draws otherwise.
    other = _model(seed=10)
    assert other.delays(other.draw(keys[0])) != table[0]


def test_zero_jitter_draws_the_base_latency_and_computes_no_digest():
    fast = _model(base=0.003, jitter=0.0)
    slow = _model(base=0.003, jitter=1e-12)
    key = _keys(1)[0]
    assert fast.draw(key) == bytes(4 * 48)
    assert fast.delays(fast.draw(key)) == [0.003] * 48
    assert all(abs(d - 0.003) < 1e-9 for d in slow.delays(slow.draw(key)))
    assert (fast.digests, slow.digests) == (0, 1)


def test_drop_coins_are_a_second_uniform_per_link():
    model = _model()
    keys = _keys(250)
    coins = [c for key in keys for c in model.coins(key)]
    assert all(0.0 <= c < 1.0 for c in coins)
    assert abs(statistics.fmean(coins) - 0.5) < 0.01
    # Coins and delays are different digests of the same message.
    delays = model.delays(model.draw(keys[0]))
    assert [(d - 0.001) / 0.004 for d in delays] != pytest.approx(model.coins(keys[0]))
    assert not math.isnan(statistics.correlation(delays, model.coins(keys[0])))


# ----------------------------------------------------------------------
# The surge: a hop's draw times the factor of the round its sender holds
# the message in
# ----------------------------------------------------------------------
#: Rounds of 30 ms (δ = 10 ms), slots of 1 ms.
_CLOCK_DELTA_S = 0.01
_SLOT_S = 0.001
_PAIR = {0: (1,), 1: (0,)}


def _hop(t: float, delay: float) -> float:
    """The hop law: the slot edge at or after ``t + delay``."""
    return math.ceil((t + delay) / _SLOT_S) * _SLOT_S


def _pair(base_latency_s, surge_factor):
    """Two linked nodes on one fabric with no jitter, a still clock, and
    the first arrivals at pid 1 as ``[(message round, instant)]``."""
    transport = SimTransport(
        2, base_latency_s=base_latency_s, jitter_s=0.0, seed=0, slot_s=_SLOT_S
    )
    clock = StillClock(_CLOCK_DELTA_S)
    network = GossipNetwork(transport, _PAIR, ignore, SeenIndex(10), clock, surge_factor)
    arrivals = []
    tap_arrivals(network, lambda pid, m, at: pid == 1 and arrivals.append((m.round, at)))
    return transport, clock, network, arrivals


def _publish_at(network, clock, t, message_round):
    clock.time = t
    network.nodes[0].publish(make_vote(_REGISTRY, _REGISTRY.secret_key(0), message_round, None))


def test_latency_follows_the_surge_factor_in_force():
    """Round 1 surges ×10: a hop sent in it waits ten base latencies, one
    sent in round 0 or 2 waits one."""
    transport, clock, network, arrivals = _pair(0.010, lambda r: 10.0 if r == 1 else 1.0)
    for r in range(3):
        _publish_at(network, clock, r * 3 * _CLOCK_DELTA_S + 0.005, r)
    clock.time = 1.0
    network.catch_up()
    assert arrivals == [
        (0, _hop(0.005, 0.010)),
        (2, _hop(0.065, 0.010)),
        (1, _hop(0.035, 0.100)),
    ]
    assert transport.sent_count == 0


def test_a_surge_slows_later_sends_not_frames_already_parked():
    """The factor is the one of the round holding the send: a frame sent
    just before a ×5 round keeps its unsurged slot though it lands in
    that round, and one sent on the round's edge waits five times as
    long."""
    _, clock, network, arrivals = _pair(0.004, lambda r: 5.0 if r == 1 else 1.0)
    _publish_at(network, clock, 0.029, 0)  # round 0
    _publish_at(network, clock, 0.030, 1)  # round 1 begins here
    clock.time = 1.0
    network.catch_up()
    assert arrivals == [(0, _hop(0.029, 0.004)), (1, _hop(0.030, 0.020))]
    assert arrivals[0][1] == pytest.approx(0.033)
    assert arrivals[1][1] == pytest.approx(0.050)


def test_surged_message_is_delayed_not_dropped():
    """Under a ×20 surge the hop takes 100 ms: not there at 40 ms, there
    by 200 ms, and nothing is counted stale."""
    _, clock, network, arrivals = _pair(0.005, lambda r: 20.0)
    _publish_at(network, clock, 0.0, 0)
    clock.time = 0.04
    network.catch_up()
    assert arrivals == []
    assert network.nodes[1].stats["delivered"] == 0
    clock.time = 0.2
    network.catch_up()
    assert arrivals == [(0, pytest.approx(0.1))]
    assert network.nodes[1].stats == {"delivered": 1, "duplicates": 0, "stale_dropped": 0}
