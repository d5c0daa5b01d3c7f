"""E1 — receive-phase delivery through the indexed MessageBus.

The engine's :class:`~repro.engine.bus.MessageBus` keeps per-recipient
cursors and backlogs over one round-bucketed log, shares the synchronous
tail slice between caught-up receivers, and never rescans delivered
messages.  The flat pool it replaced lives on as a tier-1 oracle
(``tests/engine/test_bus.py::FlatPool``).

This bench replays fixed message schedules through the delivery layer
alone and reports its seconds:

* **synchronous**: 50 processes, 200 rounds, full participation — the
  acceptance-criteria configuration;
* **async window**: a 40-round asynchronous period with partial
  adversarial delivery — where cursors stall and backlogs grow with
  the window length.

The wall clock is gated by ``check_trend.py`` against the committed
``BENCH_engine_bus.json``; the deterministic no-rescan test below is
the timing-free gate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.analysis import format_table
from repro.engine.bus import MessageBus

#: Machine-readable run configuration (recorded in BENCH_*.json).
BENCH_CONFIG = {"n": 50, "rounds": 200, "async_window": [80, 120]}
REPEATS = 5


@dataclass(frozen=True)
class Msg:
    message_id: str


def replay(n: int, rounds: int, async_window=None, seed: int = 0) -> tuple[float, int]:
    """Drive the bus through a fixed schedule; returns
    (seconds spent, total messages handed to receivers)."""
    engine = MessageBus(n)
    rng = random.Random(seed)
    delivered_total = 0
    started = time.perf_counter()
    for r in range(rounds):
        engine.begin_round(r)
        # Per round: one vote per process, plus a propose every other round.
        for s in range(n):
            engine.publish(Msg(f"v{r}:{s}"))
            if r % 2 == 0:
                engine.publish(Msg(f"p{r}:{s}"))
        asynchronous = async_window is not None and async_window[0] <= r < async_window[1]
        for pid in range(n):
            if asynchronous:
                pending = engine.deliverable(pid)
                chosen = [m for m in pending if rng.random() < 0.7]
                engine.deliver_chosen(pid, chosen, pending=pending)
                delivered_total += len(chosen)
            else:
                delivered_total += len(engine.deliver_all(pid))
    return time.perf_counter() - started, delivered_total


def test_engine_bus_delivery(record, bench_json):
    n, rounds = BENCH_CONFIG["n"], BENCH_CONFIG["rounds"]
    scenarios = {
        f"synchronous {n}x{rounds}": {},
        f"async window {n}x{rounds} (rounds 80-120)": dict(
            async_window=tuple(BENCH_CONFIG["async_window"])
        ),
    }
    # One sample = both scenarios once; REPEATS real repeats per entry.
    samples = [0.0] * REPEATS
    rows = []
    for name, kwargs in scenarios.items():
        results = [replay(n, rounds, **kwargs) for _ in range(REPEATS)]
        # Seeded schedule: every repeat hands over the same messages.
        assert len({delivered for _, delivered in results}) == 1
        samples = [total + seconds for total, (seconds, _) in zip(samples, results)]
        rows.append([name, f"{min(t for t, _ in results) * 1e3:.1f}", results[0][1]])
    record(
        format_table(
            ["scenario", "message bus (ms, best)", "messages delivered"],
            rows,
            title="Receive-phase delivery layer: the indexed bus",
        )
    )
    bench_json(samples)


def test_bus_does_not_rescan_under_synchrony(record):
    """Deterministic (timing-free) form of the same claim: per round the
    bus materialises one shared tail, not one list per receiver."""
    n, rounds = 50, 200
    bus = MessageBus(n)
    for r in range(rounds):
        bus.begin_round(r)
        for s in range(n):
            bus.publish(Msg(f"v{r}:{s}"))
        for pid in range(n):
            bus.deliver_all(pid)
    assert bus.stats["tail_builds"] == rounds
    assert bus.stats["tail_reuses"] == rounds * (n - 1)
    # A per-receiver rescan would materialise rounds * n * n entries;
    # the bus touches each published message once.
    assert bus.stats["messages_materialised"] == bus.total_published == rounds * n
    record(
        "synchronous 50x200: tail slices built per round = "
        f"{bus.stats['tail_builds'] / rounds:.0f} (receivers: {n}); "
        f"messages materialised = {bus.stats['messages_materialised']} "
        f"(per-receiver rescan: {rounds * n * n})"
    )
