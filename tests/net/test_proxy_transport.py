"""The adversarial proxy: exact audit counters, flush order, phase drive."""

import asyncio

from repro.attacks import AttackScript, drop, heal, partition, phase, surge
from repro.net.proxy_transport import ProxyTransport
from repro.runtime.metrics import MetricsHub

from tests.net.conftest import Collector


class FakeInner:
    """A transport stub that records sends and sits at time zero."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((src, dst, payload))

    def now(self):
        return 0.0

    def defer(self, delay_s, callback, *args):
        asyncio.get_running_loop().call_later(delay_s, callback, *args)


def _proxy(script, *, seed=0, round_s=0.02, base_latency_s=0.01, inner=None):
    return ProxyTransport(
        inner if inner is not None else FakeInner(),
        script.timeline(),
        seed=seed,
        round_s=round_s,
        base_latency_s=base_latency_s,
    )


SCRIPT = AttackScript(
    name="audit",
    phases=(
        phase(2),
        phase(2, partition((0, 1), (2, 3))),
        phase(2, heal(), drop(0, 1, 1.0)),
        phase(2, heal(), surge(5.0)),
    ),
)


def test_audit_counters_are_exact_per_phase():
    async def scenario():
        proxy = _proxy(SCRIPT)
        inner = proxy.inner

        # Phase 0: benign — everything forwards untouched.
        proxy.send(0, 2, "a")
        assert inner.sent == [(0, 2, "a")]

        # Phase 1: the partition holds cross-group frames, in-group pass.
        proxy.enter_phase(1)
        proxy.send(0, 1, "b")
        proxy.send(0, 2, "c")
        proxy.send(3, 1, "d")
        assert inner.sent == [(0, 2, "a"), (0, 1, "b")]
        assert proxy.held_count == 2

        # Phase 2: heal flushes held frames in send order; the p=1 drop
        # rule then really discards 0→1 frames.
        proxy.enter_phase(2)
        assert inner.sent[-2:] == [(0, 2, "c"), (3, 1, "d")]
        assert proxy.held_count == 0
        proxy.send(0, 1, "e")
        proxy.send(1, 0, "f")
        assert inner.sent[-1] == (1, 0, "f")

        # Phase 3: the surge forwards after (factor − 1) × base latency.
        proxy.enter_phase(3)
        proxy.send(2, 3, "g")
        assert (2, 3, "g") not in inner.sent
        await asyncio.sleep(0.08)
        assert inner.sent[-1] == (2, 3, "g")

        assert proxy.audit_totals() == {"partitioned": 2, "dropped": 1, "delayed": 1}
        assert proxy.audit[1] == {"partitioned": 2, "dropped": 0, "delayed": 0}
        assert proxy.audit[2] == {"partitioned": 0, "dropped": 1, "delayed": 0}
        assert proxy.audit[3] == {"partitioned": 0, "dropped": 0, "delayed": 1}

        proxy.cancel_timers()

    asyncio.run(scenario())


def test_phase_transitions_are_monotone_and_idempotent():
    proxy = _proxy(SCRIPT)
    proxy.enter_phase(2)
    proxy.enter_phase(1)  # stale control frame: ignored
    proxy.enter_phase(99)  # out of range: ignored
    proxy.send(0, 2, "x")  # phase 2 has no partition — forwards
    assert proxy.inner.sent == [(0, 2, "x")]
    assert proxy.audit_totals()["partitioned"] == 0


def test_drop_coins_are_seeded_per_link():
    script = AttackScript(name="lossy", phases=(phase(1), phase(1, drop(0, 1, 0.5))))

    def survivors(seed):
        proxy = _proxy(script, seed=seed)
        proxy.enter_phase(1)
        for i in range(40):
            proxy.send(0, 1, i)
        return [payload for (_, _, payload) in proxy.inner.sent]

    # Same seed → the identical coin sequence; a drop actually happened.
    assert survivors(7) == survivors(7)
    assert 0 < len(survivors(7)) < 40
    assert survivors(7) != survivors(8)


def test_schedule_phases_self_drives_from_the_loop_clock():
    async def scenario():
        proxy = _proxy(SCRIPT, round_s=0.01)
        proxy.schedule_phases()
        proxy.send(0, 2, "early")
        # Mid-partition (rounds 2-3), as a loop timer: the loop runs due
        # timers in deadline order, so this send falls between the two
        # phase flips however late a loaded host runs them.
        asyncio.get_running_loop().call_later(0.025, proxy.send, 0, 2, "blocked")
        async with asyncio.timeout(2):
            while proxy.inner.sent[-1] != (0, 2, "blocked"):  # healed, frame flushed
                await asyncio.sleep(0.001)
        assert proxy.audit[1]["partitioned"] == 1  # it was held, not forwarded
        assert proxy.held_count == 0
        proxy.cancel_timers()

    asyncio.run(scenario())


def test_metrics_export_and_delegation():
    proxy = _proxy(SCRIPT)
    hub = MetricsHub()
    proxy.enter_phase(1)
    proxy.send(0, 2, "x")
    proxy.export_metrics(hub)
    gauges = hub.snapshot()["gauges"]
    assert gauges["attack_partitioned_frames"] == 1
    assert gauges["attack_held_frames"] == 1
    assert gauges["attack_phase"] == 1
    # Only the data surface is forwarded: lifecycle stays with whoever
    # built the inner transport.
    assert not hasattr(proxy, "close")


def test_drop_wildcards_match_any_link():
    script = AttackScript(name="wild", phases=(phase(1), phase(1, drop(None, None, 1.0))))
    proxy = _proxy(script)
    proxy.enter_phase(1)
    proxy.send(0, 1, "a")
    proxy.send(3, 2, "b")
    assert proxy.inner.sent == []
    assert proxy.audit_totals()["dropped"] == 2


def test_send_many_decomposes_and_never_uses_the_inner_bulk_path():
    class BulkInner(FakeInner):
        def send_many(self, src, dsts, payload):
            raise AssertionError("fan-outs must not bypass per-frame interception")

    proxy = _proxy(SCRIPT, inner=BulkInner())
    proxy.send_many(0, (1, 2, 3), "x")
    assert proxy.inner.sent == [(0, 1, "x"), (0, 2, "x"), (0, 3, "x")]
    # Under a wildcard p=1 drop every frame of the fan-out is discarded.
    lossy = AttackScript(name="all", phases=(phase(1), phase(1, drop(None, None, 1.0))))
    proxy = _proxy(lossy, inner=BulkInner())
    proxy.enter_phase(1)
    proxy.send_many(0, (1, 2, 3), "y")
    assert proxy.inner.sent == []
    assert proxy.audit_totals()["dropped"] == 3


def test_fanout_drop_coins_are_tossed_per_frame_on_a_batched_inner():
    from repro.net.transport import SimTransport

    script = AttackScript(name="lossy", phases=(phase(1), phase(1, drop(None, None, 0.5))))

    async def scenario():
        inner = SimTransport(8, base_latency_s=0.0, jitter_s=0.0, seed=0, slot_s=0.001)
        proxy = _proxy(script, inner=inner)
        inbox = Collector(proxy, range(1, 8))  # subscribes through to the inner fabric
        inner.start()
        proxy.enter_phase(1)
        proxy.send_many(0, range(1, 8), "x")
        dropped = proxy.audit_totals()["dropped"]
        # A batch-level coin would kill all seven frames or none; the
        # per-link streams split the fan-out.
        assert 0 < dropped < 7
        assert inner.sent_count == 7 - dropped
        await asyncio.sleep(0.01)
        assert sum(len(frames) for frames in inbox.frames.values()) == 7 - dropped

    asyncio.run(scenario())


def test_fanout_surges_delay_every_frame_through_the_wheel():
    from repro.net.transport import SimTransport

    script = AttackScript(name="slow", phases=(phase(1), phase(1, surge(5.0))))

    async def scenario():
        inner = SimTransport(4, base_latency_s=0.001, jitter_s=0.0, seed=0, slot_s=0.001)
        proxy = _proxy(script, base_latency_s=0.001, inner=inner)
        inbox = Collector(proxy, (1, 2, 3))
        inner.start()
        proxy.enter_phase(1)
        proxy.send_many(0, (1, 2, 3), "x")
        # One delayed count per frame, not one per fan-out.
        assert proxy.audit_totals()["delayed"] == 3
        assert inner.sent_count == 0
        await asyncio.sleep(0.05)
        assert inbox.frames == {pid: [(0, "x")] for pid in (1, 2, 3)}

    asyncio.run(scenario())
