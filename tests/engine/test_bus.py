"""MessageBus semantics: it must be the flat pool, only indexed.

The reference model (``FlatPool``) reimplements the simulator's
original delivery state — one global list, a per-pid cursor, and a
per-pid set of ids delivered ahead of the cursor — and a seeded fuzz
drives both implementations through identical publish/deliver schedules
to prove they agree message for message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.engine.bus import MessageBus
from repro.engine.errors import UndeliverableMessageError


@dataclass(frozen=True)
class FakeMessage:
    """The bus only reads ``message_id``; everything else is payload."""

    message_id: str
    round: int = 0


class FlatPool:
    """The pre-refactor delivery state, verbatim as the oracle."""

    def __init__(self, n: int) -> None:
        self._pool: list[FakeMessage] = []
        self._ids: set[str] = set()
        self._cursor = {pid: 0 for pid in range(n)}
        self._extras: dict[int, set[str]] = {pid: set() for pid in range(n)}

    def publish(self, message: FakeMessage) -> bool:
        if message.message_id in self._ids:
            return False
        self._ids.add(message.message_id)
        self._pool.append(message)
        return True

    def deliverable(self, pid: int) -> list[FakeMessage]:
        return [
            m for m in self._pool[self._cursor[pid] :] if m.message_id not in self._extras[pid]
        ]

    def deliver_all(self, pid: int) -> list[FakeMessage]:
        batch = self.deliverable(pid)
        self._cursor[pid] = len(self._pool)
        self._extras[pid].clear()
        return batch

    def deliver_chosen(self, pid: int, chosen: list[FakeMessage]) -> None:
        self._extras[pid].update(m.message_id for m in chosen)


def ids(messages) -> list[str]:
    return [m.message_id for m in messages]


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def test_catch_up_on_wake_equals_flat_pool():
    """A sleeper's first delivery after a gap is the entire backlog, in
    publish order — exactly what the flat pool's lagging cursor gave."""
    bus, pool = MessageBus(2), FlatPool(2)
    for r in range(3):
        bus.begin_round(r)
        for s in range(3):
            message = FakeMessage(f"r{r}s{s}", r)
            bus.publish(message)
            pool.publish(message)
        # pid 0 receives every round; pid 1 sleeps throughout.
        assert ids(bus.deliver_all(0)) == ids(pool.deliver_all(0))
    assert ids(bus.deliver_all(1)) == ids(pool.deliver_all(1)) == [
        f"r{r}s{s}" for r in range(3) for s in range(3)
    ]
    assert bus.deliverable(1) == []


def test_duplicate_message_id_suppressed():
    bus = MessageBus(1)
    bus.begin_round(0)
    assert bus.publish(FakeMessage("a"))
    assert not bus.publish(FakeMessage("a"))
    assert len(bus) == 1
    assert bus.stats["duplicates"] == 1
    assert ids(bus.round_messages(0)) == ["a"]
    assert "a" in bus and "b" not in bus


def test_adversarial_delivery_stays_within_deliverable_set():
    bus = MessageBus(1)
    bus.begin_round(0)
    bus.publish(FakeMessage("a"))
    with pytest.raises(UndeliverableMessageError):
        bus.deliver_chosen(0, [FakeMessage("forged")])
    # A failed choice must not corrupt delivery state.
    assert ids(bus.deliverable(0)) == ["a"]
    # Already-delivered messages are no longer deliverable either.
    bus.deliver_chosen(0, [FakeMessage("a")])
    with pytest.raises(UndeliverableMessageError):
        bus.deliver_chosen(0, [FakeMessage("a")])


def test_partial_delivery_parks_backlog_in_publish_order():
    bus = MessageBus(1)
    bus.begin_round(0)
    for name in "abcde":
        bus.publish(FakeMessage(name))
    bus.deliver_chosen(0, [FakeMessage("b"), FakeMessage("d")])
    assert ids(bus.deliverable(0)) == ["a", "c", "e"]
    bus.begin_round(1)
    bus.publish(FakeMessage("f"))
    # Catch-up: withheld messages first (publish order), then the new tail.
    assert ids(bus.deliver_all(0)) == ["a", "c", "e", "f"]
    assert bus.deliverable(0) == []


def test_synchronous_tail_is_shared_between_caught_up_receivers():
    """The receive phase must not rebuild the same batch per process."""
    n = 8
    bus = MessageBus(n)
    for r in range(3):
        bus.begin_round(r)
        for s in range(n):
            bus.publish(FakeMessage(f"r{r}s{s}", r))
        batches = [bus.deliver_all(pid) for pid in range(n)]
        assert all(batch is batches[0] for batch in batches)
    assert bus.stats["tail_builds"] == 3
    assert bus.stats["tail_reuses"] == 3 * (n - 1)
    # A per-receiver rescan would materialise rounds * n * n entries;
    # the bus touches each published message once.
    assert bus.stats["messages_materialised"] == bus.total_published == 3 * n


def test_round_buckets_span_send_phases():
    bus = MessageBus(1)
    bus.begin_round(0)
    bus.publish(FakeMessage("a0"))
    bus.begin_round(1)
    bus.publish(FakeMessage("a1"))
    bus.publish(FakeMessage("b1"))
    assert ids(bus.round_messages(0)) == ["a0"]
    assert ids(bus.round_messages(1)) == ["a1", "b1"]
    assert ids(bus.round_messages(7)) == []


# ----------------------------------------------------------------------
# Fuzz: the bus IS the flat pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_schedule_matches_flat_pool(seed):
    rng = random.Random(seed)
    n = 4
    bus, pool = MessageBus(n), FlatPool(n)
    counter = 0
    for r in range(40):
        bus.begin_round(r)
        for _ in range(rng.randrange(0, 6)):
            # Occasionally replay an old id to exercise dedup.
            if counter and rng.random() < 0.1:
                name = f"m{rng.randrange(counter)}"
            else:
                name = f"m{counter}"
                counter += 1
            message = FakeMessage(name, r)
            assert bus.publish(message) == pool.publish(message)
        for pid in range(n):
            mode = rng.random()
            assert ids(bus.deliverable(pid)) == ids(pool.deliverable(pid))
            if mode < 0.4:  # synchronous receiver
                assert ids(bus.deliver_all(pid)) == ids(pool.deliver_all(pid))
            elif mode < 0.8:  # asynchronous receiver: random subset
                pending = pool.deliverable(pid)
                chosen = [m for m in pending if rng.random() < 0.5]
                bus.deliver_chosen(pid, chosen)
                pool.deliver_chosen(pid, chosen)
            # else: asleep — not consulted at all.
    for pid in range(n):
        assert ids(bus.deliverable(pid)) == ids(pool.deliverable(pid))
