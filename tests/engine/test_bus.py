"""MessageBus semantics: it must be the flat pool, only indexed.

The reference model (``FlatPool``) reimplements the simulator's
original delivery state — one global list, a per-pid cursor, and a
per-pid set of messages delivered ahead of the cursor — and a seeded
fuzz drives both implementations through identical publish/deliver
schedules to prove they agree message for message.  The pool never
shrinks; the bus compacts its log every round, which must not show.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.engine.bus import MessageBus
from repro.engine.errors import UndeliverableMessageError


@dataclass(frozen=True)
class FakeMessage:
    """The bus only reads ``content_key``; everything else is payload."""

    content_key: str
    round: int = 0


class FlatPool:
    """The pre-refactor delivery state as the oracle, with the bus's key
    horizon: a key accepted in round ``a`` is a duplicate through round
    ``a + horizon``."""

    def __init__(self, n: int, horizon: int) -> None:
        self._pool: list[FakeMessage] = []
        #: key -> the round it was last accepted in.
        self._ids: dict[str, int] = {}
        self._cursor = {pid: 0 for pid in range(n)}
        self._extras: dict[int, set[FakeMessage]] = {pid: set() for pid in range(n)}
        self._horizon = horizon

    def publish(self, message: FakeMessage, now: int = 0) -> bool:
        accepted = self._ids.get(message.content_key)
        if accepted is not None and accepted >= now - self._horizon:
            return False
        self._ids[message.content_key] = now
        self._pool.append(message)
        return True

    def deliverable(self, pid: int) -> list[FakeMessage]:
        return [m for m in self._pool[self._cursor[pid] :] if m not in self._extras[pid]]

    def deliver_all(self, pid: int) -> list[FakeMessage]:
        batch = self.deliverable(pid)
        self._cursor[pid] = len(self._pool)
        self._extras[pid].clear()
        return batch

    def deliver_chosen(self, pid: int, chosen: list[FakeMessage]) -> None:
        self._extras[pid].update(chosen)


def ids(messages) -> list[str]:
    return [m.content_key for m in messages]


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def test_catch_up_on_wake_equals_flat_pool():
    """A sleeper's first delivery after a gap is the entire backlog, in
    publish order — exactly what the flat pool's lagging cursor gave."""
    bus, pool = MessageBus(2, horizon_rounds=8), FlatPool(2, horizon=8)
    for r in range(3):
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


def test_duplicate_content_key_suppressed():
    bus = MessageBus(1, horizon_rounds=8)
    assert bus.publish(FakeMessage("a"))
    assert not bus.publish(FakeMessage("a"))
    assert len(bus) == 1
    assert bus.stats["duplicates"] == 1
    assert "a" in bus and "b" not in bus


def test_adversarial_delivery_stays_within_deliverable_set():
    bus = MessageBus(1, horizon_rounds=8)
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
    bus = MessageBus(1, horizon_rounds=8)
    for name in "abcde":
        bus.publish(FakeMessage(name))
    bus.deliver_chosen(0, [FakeMessage("b"), FakeMessage("d")])
    assert ids(bus.deliverable(0)) == ["a", "c", "e"]
    bus.publish(FakeMessage("f"))
    # Catch-up: withheld messages first (publish order), then the new tail.
    assert ids(bus.deliver_all(0)) == ["a", "c", "e", "f"]
    assert bus.deliverable(0) == []


def test_synchronous_tail_is_shared_between_caught_up_receivers():
    """The receive phase must not rebuild the same batch per process."""
    n = 8
    bus = MessageBus(n, horizon_rounds=8)
    for r in range(3):
        for s in range(n):
            bus.publish(FakeMessage(f"r{r}s{s}", r))
        batches = [bus.deliver_all(pid) for pid in range(n)]
        assert all(batch is batches[0] for batch in batches)
    assert bus.stats["tail_builds"] == 3
    assert bus.stats["tail_reuses"] == 3 * (n - 1)
    # A per-receiver rescan would materialise rounds * n * n entries;
    # the bus touches each published message once.
    assert bus.stats["messages_materialised"] == bus.total_published == 3 * n


# ----------------------------------------------------------------------
# Fuzz: the bus IS the flat pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize("horizon", [0, 3, 40])
@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_schedule_matches_flat_pool(seed, horizon):
    rng = random.Random(seed)
    n = 4
    bus, pool = MessageBus(n, horizon_rounds=horizon), FlatPool(n, horizon)
    retired: set[int] = set()
    counter = 0
    for r in range(40):
        if r == 30:
            retired.add(3)  # corrupted from here on: never delivered to again
        bus.advance(r, retired)
        for _ in range(rng.randrange(0, 6)):
            # Occasionally replay an old id to exercise dedup.
            if counter and rng.random() < 0.1:
                name = f"m{rng.randrange(counter)}"
            else:
                name = f"m{counter}"
                counter += 1
            message = FakeMessage(name, r)
            assert bus.publish(message) == pool.publish(message, r)
        for pid in range(n):
            if pid in retired:
                continue
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
    for pid in set(range(n)) - retired:
        assert ids(bus.deliverable(pid)) == ids(pool.deliverable(pid))
    assert len(bus) == bus.total_published == len(pool._pool)


# ----------------------------------------------------------------------
# Retention: the log compacts, keys expire, the floor follows the log
# ----------------------------------------------------------------------
def test_log_keeps_what_a_receiver_still_able_to_receive_lacks():
    bus = MessageBus(3, horizon_rounds=8)
    for r in range(4):
        bus.advance(r)
        bus.publish(FakeMessage(f"r{r}", r))
        bus.deliver_all(0)
        if r < 2:
            bus.deliver_all(1)
        # pid 2 sleeps throughout.
    bus.advance(4)
    assert (len(bus), bus.retained) == (4, 4)  # pid 2 pins every message
    assert bus.floor == 0
    bus.advance(5, retired={2})  # corrupted: pid 1's cursor is the oldest left
    assert (len(bus), bus.retained) == (4, 2)
    assert bus.floor == 2
    assert ids(bus.deliver_all(1)) == ["r2", "r3"]
    bus.advance(6, retired={2})
    assert (len(bus), bus.total_published, bus.retained) == (4, 4, 0)
    assert bus.floor == 6  # nothing deliverable: only what comes next
    bus.publish(FakeMessage("late", 6))
    assert ids(bus.deliverable(0)) == ids(bus.deliverable(1)) == ["late"]


def test_a_parked_message_pins_the_log_from_its_position():
    bus = MessageBus(1, horizon_rounds=8)
    bus.advance(0)
    for name in "abc":
        bus.publish(FakeMessage(name))
    bus.deliver_chosen(0, [FakeMessage("a"), FakeMessage("c")])
    bus.advance(1)
    assert bus.retained == 2 and bus.floor == 0  # "b" is parked at position 1
    bus.publish(FakeMessage("d", 1))
    assert ids(bus.deliver_all(0)) == ["b", "d"]
    bus.advance(2)
    assert bus.retained == 0 and len(bus) == 4


def test_dedup_keys_expire_at_the_horizon():
    bus = MessageBus(1, horizon_rounds=2)
    bus.advance(0)
    assert bus.publish(FakeMessage("a"))
    for r in (1, 2):
        bus.advance(r)
        assert not bus.publish(FakeMessage("a", r)) and "a" in bus
    bus.advance(3)
    assert "a" not in bus and bus.key_count == 0
    assert bus.publish(FakeMessage("a", 3))  # past the horizon: published again
    assert ids(bus.deliver_all(0)) == ["a", "a"]


def test_a_key_pending_twice_is_matched_oldest_first():
    """Past the key horizon the same content can be published again while
    a receiver still lacks the first copy; a choice matched by content
    takes one copy, the oldest, and parks the other."""
    bus = MessageBus(1, horizon_rounds=0)
    bus.advance(0)
    first = FakeMessage("a", 0)
    assert bus.publish(first)
    bus.advance(1)
    again = FakeMessage("a", 1)
    assert bus.publish(again)
    assert bus.deliverable(0) == [first, again]
    bus.deliver_chosen(0, [FakeMessage("a", 5)])  # a content twin of both
    assert bus.deliverable(0) == [again]


def test_a_withdrawn_message_stops_pinning_one_receiver_only():
    """A receiver that can never get a message lets it go, from its
    backlog or from past its cursor; what else is pending for it stays
    pending in publish order, and every other receiver is untouched."""
    bus = MessageBus(2, horizon_rounds=8)
    bus.advance(0)
    for name in "abcd":
        bus.publish(FakeMessage(name))
    bus.deliver_chosen(0, [FakeMessage("b")])  # "a", "c", "d" parked
    bus.publish(FakeMessage("e"))
    assert bus.positions(0) == [0, 2, 3, 4] and bus.pending_count(0) == 4
    bus.withdraw(0, 2)  # from the backlog
    bus.withdraw(0, 4)  # past the cursor
    bus.withdraw(0, 1)  # delivered already: left alone
    assert ids(bus.deliverable(0)) == ["a", "d"] and bus.pending_count(0) == 2
    assert ids(bus.deliverable(1)) == ["a", "b", "c", "d", "e"]
    bus.withdraw(1, 2)  # one past the cursor: the positions before it park
    assert bus.positions(1) == [0, 1, 3, 4]
    assert ids(bus.deliver_all(1)) == ["a", "b", "d", "e"]
    bus.withdraw(0, 0)
    bus.withdraw(0, 3)
    bus.advance(1)
    assert bus.retained == 0 and len(bus) == 5
