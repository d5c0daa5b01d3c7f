"""The indexed message bus: the dissemination layer of the round model.

Delivery state is indexed per recipient, not rescanned from one flat
pool per process per round:

* a global append-only **log** in publish order, and
* per recipient, a **cursor** (everything below it has been either
  delivered or parked in the backlog) plus an ordered **backlog** of
  the messages below the cursor that are still undelivered.

Synchronous delivery is then ``backlog + log[cursor:]`` — O(new
messages), with the tail slice shared between all caught-up receivers
instead of being rebuilt per process — and adversarial delivery removes
the chosen subset from an indexed deliverable view, so messages that
were already delivered are never rescanned again.

Semantics are identical to the flat pool (the equivalence suite pins
seeded traces across the refactor): publish order is delivery order,
duplicate publishes are suppressed, and a process that slept through
rounds catches up on its entire gap at its next awake receive phase.
The bus keeps no per-round view of its log: what a round published is
counted by the simulator's :class:`~repro.sleepy.trace.TraceRecorder`
as each :meth:`MessageBus.publish` succeeds.

Deduplication is **content-keyed**: like the verification layer, the
bus keys a message by its
:attr:`~repro.sleepy.messages.Message.content_key` — kind, claimed
sender, signed fields and signature, compared exactly; built per use,
nothing hashed, nothing memoised — and never by an id read from the
message (README, "Identifiers and where they are computed"; a trusted
id could suppress a distinct message at publish or void an honest
message's delivery through :meth:`MessageBus.deliver_chosen`).  Foreign
message types without a content key (test doubles, custom transports)
fall back to their ``message_id`` attribute as the key.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.errors import UndeliverableMessageError
from repro.sleepy.messages import Message, dedup_key


class MessageBus:
    """Per-recipient indexed delivery state over one append-only log."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("need at least one recipient")
        self.n = n
        self._log: list[Message] = []
        #: Content keys of every published message.
        self._keys: set[object] = set()
        self._cursor: list[int] = [0] * n
        self._backlog: list[list[Message]] = [[] for _ in range(n)]
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
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, message: Message) -> bool:
        """Add ``message`` to the log; ``False`` if its content was already seen."""
        key = dedup_key(message)
        if key in self._keys:
            self.stats["duplicates"] += 1
            return False
        self._keys.add(key)
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
        return self._backlog[pid] + self._log[self._cursor[pid] :]

    def deliver_all(self, pid: int) -> Sequence[Message]:
        """Synchronous delivery: hand over everything pending, mark it done.

        Returns the backlog-plus-tail batch.  When the backlog is empty
        (the common case under synchrony) the returned batch is an
        immutable tuple shared between all receivers at the same cursor.
        """
        tail = self._tail(self._cursor[pid])
        backlog = self._backlog[pid]
        if backlog:
            batch: Sequence[Message] = backlog + list(tail)
            self._backlog[pid] = []
            self.stats["messages_materialised"] += len(batch)
        else:
            batch = tail
        self._cursor[pid] = len(self._log)
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
        content key as publish dedup, so a Byzantine message carrying a
        transplanted ``message_id`` cannot impersonate an honest pending
        message and void its delivery.  The pending set is keyed once, and
        only when a chosen object is not itself one of the pending ones.
        """
        if pending is None:
            pending = self.deliverable(pid)
        if not chosen:
            self._backlog[pid] = list(pending)
            self._cursor[pid] = len(self._log)
            return
        # An adversary chooses among the objects it was shown, and
        # identity cannot be forged: no key is needed to take those out.
        chosen_ids = {id(m) for m in chosen}
        backlog = [m for m in pending if id(m) not in chosen_ids]
        if len(backlog) + len(chosen_ids) != len(pending):
            # Some chosen object is not itself pending: match by content.
            pending_keys = [dedup_key(m) for m in pending]
            remaining = dict(zip(pending_keys, pending))
            for message in chosen:
                key = dedup_key(message)
                if remaining.pop(key, None) is None and key not in pending_keys:
                    raise UndeliverableMessageError(
                        f"message {key} is not deliverable to process {pid}"
                    )
            backlog = list(remaining.values())
        self._backlog[pid] = backlog
        self._cursor[pid] = len(self._log)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    def __contains__(self, key: object) -> bool:
        """Whether a dedup key (``content_key``; ``message_id`` for
        foreign message types) has been published."""
        return key in self._keys

    @property
    def total_published(self) -> int:
        return len(self._log)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tail(self, cursor: int) -> tuple[Message, ...]:
        if cursor >= len(self._log):
            return ()
        cached = self._tail_memo.get(cursor)
        if cached is None:
            cached = tuple(self._log[cursor:])
            self._tail_memo[cursor] = cached
            self.stats["tail_builds"] += 1
            self.stats["messages_materialised"] += len(cached)
        else:
            self.stats["tail_reuses"] += 1
        return cached
