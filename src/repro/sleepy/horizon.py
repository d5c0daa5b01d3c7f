"""The retention horizon: how long anything about a message is kept.

A vote older than the expiration period η is expired for every honest
process, so a message more than η rounds old can no longer change what
a protocol computes.  Every run forgets its dedup keys
:data:`SEEN_SLACK_ROUNDS` rounds after that, on both substrates and
with no knob:

* the simulator's bus forgets a dedup key η + 8 rounds after it
  accepted the message (:class:`~repro.engine.bus.MessageBus`);
* a shard's gossip seen index forgets a key once its message round is
  η + 8 rounds behind the shard's (:class:`~repro.net.gossip.SeenIndex`).

A verdict (:class:`~repro.sleepy.messages.MessageInterner`) lives as
long as its message can still be delivered, which the dissemination
layer says: the bus's oldest deliverable message in the simulator, the
seen index's floor in a shard.  Each of the three tables files its keys
in a :class:`RoundBuckets`.
"""

from __future__ import annotations

#: Rounds past the vote-expiry horizon η a message's dedup key is kept.
SEEN_SLACK_ROUNDS = 8


def seen_horizon(eta: int) -> int:
    """Rounds a dedup key outlives its round: η + :data:`SEEN_SLACK_ROUNDS`."""
    return eta + SEEN_SLACK_ROUNDS


class RoundBuckets:
    """Keys filed under a round, handed back once that round is below a floor.

    One list per round; :meth:`release` walks the rounds between the
    last floor and the new one, one dict pop per round however many
    keys each holds.  A key filed below the current floor is filed at
    the floor, so nothing is kept past the next release.
    """

    __slots__ = ("floor", "_buckets")

    def __init__(self, floor: int = 0) -> None:
        #: The lowest round a key may still be filed under.
        self.floor = floor
        #: round -> keys filed under it, in filing order.
        self._buckets: dict[int, list[object]] = {}

    def bucket(self, round_number: int) -> list[object]:
        """The list of keys filed under ``round_number``: append to file one.

        An owner that files many keys under the round in progress holds
        on to this list rather than look it up per key.
        """
        return self._buckets.setdefault(max(round_number, self.floor), [])

    def empty(self) -> bool:
        """Whether every bucket handed out, and so every key filed, was released."""
        return not self._buckets

    def release(self, floor: int) -> list[object]:
        """Raise the floor to ``floor``: every key filed below it, oldest round first."""
        released: list[object] = []
        for stale_round in range(self.floor, floor):
            released.extend(self._buckets.pop(stale_round, ()))
        self.floor = max(self.floor, floor)
        return released
