"""The indexed message bus: the delivery index of both substrates.

The round simulator publishes every message it disseminates into one
bus; a deployment shard publishes every message its gossip layer admits
(:class:`~repro.runtime.delivery.ShardDelivery`), once, when it first
reaches any node of the shard.  Either way delivery state is indexed per
recipient, not rescanned from one flat pool per process per round:

* a global **log** in publish order, and
* per recipient, a **cursor** (everything below it has been either
  delivered or parked in the backlog) plus an ordered **backlog** of
  the log positions below the cursor that are still undelivered.

Synchronous delivery is then ``backlog + log[cursor:]`` — O(new
messages), with the tail slice shared between all caught-up receivers
instead of being rebuilt per process — and adversarial delivery removes
the chosen subset from an indexed deliverable view, so messages that
were already delivered are never rescanned again.  In a shard the
"adversary" of :meth:`MessageBus.deliver_chosen` is the network: a node
is handed what has reached it, and the rest is parked until it does.

Semantics are identical to the flat pool (the equivalence suite pins
seeded traces across the refactor): publish order is delivery order,
duplicate publishes are suppressed, and a process that slept through
rounds catches up on its entire gap at its next awake receive phase.
The bus keeps no per-round view of its log: what a round published is
counted by the simulator's :class:`~repro.sleepy.trace.TraceRecorder`
as each :meth:`MessageBus.publish` succeeds.

The log is **compacted**, not append-only.  Once per round
(:meth:`MessageBus.advance`) the bus drops the prefix that every
receiver still able to receive has passed — its cursor and its oldest
parked message both lie beyond it.  A receiver in ``B_r`` is not able
to: corruption is monotone (:class:`~repro.engine.backend.
CorruptionTracker`), so it is never delivered to again; nor is a pid a
shard does not host.  A message one receiver can never get (a shard
saw it lost) is withdrawn from that receiver alone
(:meth:`MessageBus.withdraw`).  Positions stay absolute: ``len(bus)``,
:attr:`MessageBus.total_published` and every cursor count from the
first message ever published.  A process that sleeps keeps everything
published since it fell asleep, as the model requires, so its nap is
what the log retains.

Dedup keys are **forgotten** at the retention horizon
(:func:`~repro.sleepy.horizon.seen_horizon`): a key accepted in round
``r`` is dropped when round ``r + η + 9`` begins, after which the same
content may be published again — it is past every consumer's
expiration period.  :attr:`MessageBus.floor` is the round the oldest
still-deliverable message was published in; the run's verdict table
forgets what is older (:meth:`~repro.sleepy.messages.MessageInterner.
advance`), so a message is verified once per publication.

Deduplication is **content-keyed**: like the verification layer, the
bus keys a message by its
:attr:`~repro.sleepy.messages.Message.content_key` — kind, claimed
sender, signed fields and signature, compared exactly; built per use,
nothing hashed, nothing memoised — and never by an id read from the
message (README, "Identifiers and where they are computed"; a trusted
id could suppress a distinct message at publish or void an honest
message's delivery through :meth:`MessageBus.deliver_chosen`).  A
message carries no id: its content key is its one identity.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Sequence

from repro.engine.errors import UndeliverableMessageError
from repro.sleepy.horizon import RoundBuckets
from repro.sleepy.messages import Message


class MessageBus:
    """Per-recipient indexed delivery state over one compacted log.

    ``horizon_rounds`` is how many rounds a dedup key outlives the round
    the bus accepted its message in; the owner enters each round with
    :meth:`advance`.
    """

    def __init__(self, n: int, horizon_rounds: int) -> None:
        if n <= 0:
            raise ValueError("need at least one recipient")
        if horizon_rounds < 0:
            raise ValueError("key horizon must be non-negative")
        self.n = n
        self.horizon = horizon_rounds
        #: Publish round of the oldest message still deliverable to anyone.
        self.floor = 0
        #: The retained suffix of the log; ``_base`` is its first position.
        self._log: list[Message] = []
        self._base = 0
        #: Content keys of the messages accepted in the last horizon rounds,
        #: filed by the round they were accepted in (this round's: ``_accepted``).
        self._keys: set[object] = set()
        self._key_rounds = RoundBuckets()
        self._accepted = self._key_rounds.bucket(0)
        #: (round, position of its first message) for every round entered
        #: since the one the oldest retained message was published in.
        self._round_starts: deque[tuple[int, int]] = deque([(0, 0)])
        self._cursor: list[int] = [0] * n
        self._backlog: list[list[int]] = [[] for _ in range(n)]
        # One tail slice per distinct cursor position per send phase —
        # all caught-up receivers share the same tuple.  Immutable on
        # purpose: a third-party Process.receive that mutated its batch
        # would otherwise corrupt every other receiver's delivery.
        self._tail_memo: dict[int, tuple[Message, ...]] = {}
        #: Delivery-layer accounting (consumed by benches and tests).
        #: ``messages_materialised`` counts list entries written when
        #: building delivery views — a backlog catch-up concat
        #: deliberately re-counts the tail it copies.
        self.stats = {
            "published": 0,
            "duplicates": 0,
            "tail_builds": 0,
            "tail_reuses": 0,
            "messages_materialised": 0,
        }

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def advance(self, now: int, retired: Collection[int] = ()) -> None:
        """Enter round ``now``: forget stale keys and compact the log.

        ``retired`` are the receivers that will never be delivered to
        again (``B_now``): their delivery state is dropped, as if they
        had been handed everything.  Every other receiver pins the log
        from its oldest parked message, or else its cursor, on.
        """
        keys = self._keys
        for key in self._key_rounds.release(now - self.horizon):
            keys.discard(key)
        end = len(self)
        for pid in retired:
            self._cursor[pid] = end
            self._backlog[pid] = []
        low = min(self._cursor)
        for backlog in self._backlog:
            if backlog and backlog[0] < low:
                low = backlog[0]
        if low > self._base:
            del self._log[: low - self._base]
            self._base = low
        starts = self._round_starts
        while len(starts) > 1 and starts[1][1] <= low:
            starts.popleft()
        self.floor = starts[0][0] if low < end else now
        starts.append((now, end))
        self._accepted = self._key_rounds.bucket(now)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, message: Message) -> bool:
        """Add ``message`` to the log; ``False`` if its content was seen
        within the key horizon."""
        key = message.content_key
        if key in self._keys:
            self.stats["duplicates"] += 1
            return False
        self._keys.add(key)
        self._accepted.append(key)
        self._log.append(message)
        self.stats["published"] += 1
        if self._tail_memo:
            self._tail_memo.clear()
        return True

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliverable(self, pid: int) -> list[Message]:
        """Every message not yet delivered to ``pid``, in publish order.

        Always a fresh list — safe to hand to an adversary.
        """
        log, base = self._log, self._base
        return [log[i - base] for i in self._backlog[pid]] + log[self._cursor[pid] - base :]

    def deliver_all(self, pid: int) -> Sequence[Message]:
        """Synchronous delivery: hand over everything pending, mark it done.

        Returns the backlog-plus-tail batch.  When the backlog is empty
        (the common case under synchrony) the returned batch is an
        immutable tuple shared between all receivers at the same cursor.
        """
        tail = self._tail(self._cursor[pid])
        backlog = self._backlog[pid]
        if backlog:
            log, base = self._log, self._base
            batch: Sequence[Message] = [log[i - base] for i in backlog] + list(tail)
            self._backlog[pid] = []
            self.stats["messages_materialised"] += len(batch)
        else:
            batch = tail
        self._cursor[pid] = self._base + len(self._log)
        return batch

    def deliver_chosen(
        self, pid: int, chosen: Sequence[Message], pending: list[Message] | None = None
    ) -> None:
        """Adversarial delivery: ``chosen`` must be a subset of the
        deliverable set; everything else is parked in the backlog.

        ``pending`` lets a caller that already computed
        :meth:`deliverable` (to show the adversary) pass it back in
        rather than have it rebuilt.

        Raises :class:`UndeliverableMessageError` if the choice strays
        outside the deliverable view (injection through the delivery
        hook is impossible by construction).  Matching is by the same
        content key as publish dedup, so a Byzantine message can only
        stand for a pending message with the same content, never void a
        distinct one's delivery.  The pending set is keyed once, and
        only when a chosen object is not itself one of the pending ones.
        """
        if pending is None:
            pending = self.deliverable(pid)
        end = len(self)
        at = self.positions(pid)
        if not chosen:
            self._backlog[pid] = at
            self._cursor[pid] = end
            return
        # An adversary chooses among the objects it was shown, and
        # identity cannot be forged: no key is needed to take those out.
        chosen_ids = {id(m) for m in chosen}
        backlog = [i for i, m in zip(at, pending) if id(m) not in chosen_ids]
        if len(backlog) + len(chosen_ids) != len(pending):
            # Some chosen object is not itself pending: match by content.
            # A key past the horizon may be pending twice (published,
            # forgotten, published again); each choice takes the oldest.
            pending_keys = [m.content_key for m in pending]
            remaining: dict[object, list[int]] = {}
            for key, i in zip(pending_keys, at):
                remaining.setdefault(key, []).append(i)
            for message in chosen:
                key = message.content_key
                positions = remaining.get(key)
                if positions:
                    positions.pop(0)
                elif key not in pending_keys:
                    raise UndeliverableMessageError(
                        f"message {key} is not deliverable to process {pid}"
                    )
            backlog = sorted(i for positions in remaining.values() for i in positions)
        self._backlog[pid] = backlog
        self._cursor[pid] = end

    def withdraw(self, pid: int, position: int) -> None:
        """``pid`` can never receive the message at log ``position``: stop
        holding it for ``pid``, undelivered.

        A position that is not pending for ``pid`` is left alone.  One
        past the cursor parks the positions before it in the backlog, so
        everything else pending stays pending, in publish order.
        """
        cursor = self._cursor[pid]
        backlog = self._backlog[pid]
        if position >= cursor:
            backlog.extend(range(cursor, position))
            self._cursor[pid] = position + 1
        elif position in backlog:
            backlog.remove(position)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self, pid: int) -> int:
        """How many messages :meth:`deliverable` would hand ``pid``, counted."""
        return len(self._backlog[pid]) + len(self) - self._cursor[pid]

    def positions(self, pid: int) -> list[int]:
        """The log position of each message :meth:`deliverable` hands ``pid``, in order."""
        return self._backlog[pid] + list(range(self._cursor[pid], len(self)))

    def __len__(self) -> int:
        return self._base + len(self._log)

    def __contains__(self, key: object) -> bool:
        """Whether a content key was published within the key horizon."""
        return key in self._keys

    @property
    def total_published(self) -> int:
        return len(self)

    @property
    def retained(self) -> int:
        """Messages the log still holds (published minus compacted)."""
        return len(self._log)

    @property
    def key_count(self) -> int:
        """Dedup keys still held."""
        return len(self._keys)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tail(self, cursor: int) -> tuple[Message, ...]:
        if cursor >= self._base + len(self._log):
            return ()
        cached = self._tail_memo.get(cursor)
        if cached is None:
            cached = tuple(self._log[cursor - self._base :])
            self._tail_memo[cursor] = cached
            self.stats["tail_builds"] += 1
            self.stats["messages_materialised"] += len(cached)
        else:
            self.stats["tail_reuses"] += 1
        return cached
