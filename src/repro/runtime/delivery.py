"""A shard's receive side: one message bus its nodes read with cursors.

The paper's receive phase hands a process every message it has not yet
received, and a process that slept gets its backlog at its next awake
receive phase.  The round simulator realises that with one
:class:`~repro.engine.bus.MessageBus`; a deployment shard uses the same
class, fed by its gossip layer rather than by its senders:

* **Publish.**  A message enters the shard's bus once, when it first
  enters the shard's flood — published at one of its nodes, or
  announced by another process (:meth:`ShardDelivery.admit`, the
  :class:`~repro.net.gossip.GossipNetwork`'s admission callback) — so
  the log is in shard arrival order.
* **Deliver.**  A node's receive phase (:meth:`ShardDelivery.take`)
  hands it what is pending for it that has reached it — what the
  flood, caught up to the phase's instant, has filed as the node's
  first arrivals.  When its first arrivals since its last receive
  phase number exactly what is pending, that is everything:
  :meth:`~repro.engine.bus.MessageBus.deliver_all`, the tail tuple
  every caught-up node of the round shares, and with it one verified
  batch.  Otherwise the pending entries it holds, in log
  order, go through :meth:`~repro.engine.bus.MessageBus.deliver_chosen`
  and the rest stay parked until they arrive.
* **Advance.**  Once per round (:meth:`ShardDelivery.advance`) the bus
  retires the pids it will never deliver to (those the shard does not
  host, and ``B_r``) and compacts.

Counting is exact because every first arrival at a node is one pending
entry: the seen index admits a key only when the bus does not hold it.
Both forget a key on the same horizon, the seen index at
``min(message round, admission round)`` plus the horizon and the bus at
its admission round plus the horizon.  So a key the seen index has
forgotten but the bus still holds has a message round below the seen
floor, and any copy of it that arrives is dropped as stale.

Whether a node holds an entry is its bit in the seen index
(:attr:`~repro.net.gossip.Arrivals.held`) while the index keeps the
key; the flood sets it once the shard's clock has reached the node's
first arrival, so the round loop catches the flood up before entering
a round and before its receive phases.  When the index forgets a key
(:meth:`advance`, before the index does), every hosted node that does
not hold it can never receive it — any later copy is stale, or
admitted as a new entry — so the entry is withdrawn from those nodes'
pending sets; a node that does hold it keeps it pending until its next
awake receive phase, as a sleeper keeps its nap.  Nothing a node can
never receive pins the log.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Iterable, Sequence

from repro.engine.bus import MessageBus
from repro.net.gossip import SeenIndex
from repro.sleepy.horizon import RoundBuckets
from repro.sleepy.messages import Message


class ShardDelivery:
    """One :class:`~repro.engine.bus.MessageBus` over what a shard's gossip admits.

    ``n`` is the deployment's size (bus cursors are indexed by pid),
    ``hosted`` the shard's pids and ``seen`` its gossip seen index, whose
    horizon the bus shares.
    """

    def __init__(self, n: int, hosted: Iterable[int], seen: SeenIndex) -> None:
        self.seen = seen
        self.bus = MessageBus(n, seen.horizon)
        self._hosted = frozenset(hosted)
        self._remote = tuple(pid for pid in range(n) if pid not in self._hosted)
        #: ``(log position, key)`` of every admitted message, filed as the
        #: seen index files its key, so both are released together.
        self._filed = RoundBuckets(seen.floor)
        #: The log length at the start of each of the last horizon + 1
        #: rounds: ``[0]`` is where the oldest round with live keys began.
        self._starts: deque[int] = deque([0], maxlen=seen.horizon + 1)
        #: pid -> its gossip node's first-arrival count at its last receive.
        self._arrivals_taken = dict.fromkeys(self._hosted, 0)

    @property
    def floor(self) -> int:
        """The seen index's floor: no verdict below it is needed again."""
        return self.seen.floor

    def admit(self, message: Message, key: tuple) -> None:
        """A message reached the shard: publish it, once (module docstring)."""
        bus = self.bus
        bus.publish(message)
        self._filed.bucket(min(message.round, self.seen.now)).append((len(bus) - 1, key))

    def advance(self, r: int, corrupted: Collection[int]) -> None:
        """Enter round ``r`` (before any send): withdraw what can never
        arrive, then move the seen index and the bus to ``r``."""
        seen, bus = self.seen, self.bus
        index = seen.arrivals
        live = 0
        for pid in self._hosted:
            if pid not in corrupted:
                live |= 1 << pid
        for position, key in self._filed.release(r - seen.horizon):
            lacking = live & ~index[key].held
            while lacking:
                bit = lacking & -lacking
                bus.withdraw(bit.bit_length() - 1, position)
                lacking ^= bit
        seen.advance(r)
        bus.advance(r, (*self._remote, *corrupted))
        self._starts.append(len(bus))

    def take(self, pid: int, arrivals: int) -> Sequence[Message]:
        """Everything pending for hosted ``pid`` that has reached it, marked
        delivered; ``arrivals`` is its gossip node's first-arrival count."""
        bus = self.bus
        arrived = arrivals - self._arrivals_taken[pid]
        self._arrivals_taken[pid] = arrivals
        if arrived == bus.pending_count(pid):
            return bus.deliver_all(pid)
        # An entry whose key the seen index forgot was withdrawn unless
        # ``pid`` held it: it was admitted before the oldest round whose
        # keys are live (``cut``), or its round is below the floor.
        seen = self.seen
        index, floor, cut, bit = seen.arrivals, seen.floor, self._starts[0], 1 << pid
        pending = bus.deliverable(pid)
        held = [
            message
            for position, message in zip(bus.positions(pid), pending)
            if position < cut
            or message.round < floor
            or (arrivals := index.get(message.content_key)) is not None and arrivals.held & bit
        ]
        bus.deliver_chosen(pid, held, pending=pending)
        return held
