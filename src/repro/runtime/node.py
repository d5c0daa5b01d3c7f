"""A deployed node: a TOB process as a shard's round step runs it
(:func:`~repro.engine.round.step`).

Its receive phase hands the protocol everything pending for it in the
shard's message bus that has reached it
(:meth:`~repro.runtime.delivery.ShardDelivery.take`).  Messages that
arrive while the node is asleep stay pending on the bus and are
delivered at its next awake receive phase, exactly like the
queue-on-sleep rule of §2.1.  The node keeps no inbox of its own.
"""

from __future__ import annotations

from repro.protocols.tob_base import SleepyTOBProcess
from repro.runtime.delivery import ShardDelivery
from repro.sleepy.messages import Message
from repro.sleepy.trace import DecisionEvent


class DeployedNode:
    """One process, reading its shard's delivery.

    ``gossip_stats`` is the node's gossip counters, whose ``delivered``
    counts the messages that first reached it.
    """

    def __init__(
        self,
        process: SleepyTOBProcess,
        delivery: ShardDelivery,
        gossip_stats: dict[str, int],
    ) -> None:
        self.process = process
        self._delivery = delivery
        self._gossip_stats = gossip_stats
        self.decisions: list[DecisionEvent] = []

    @property
    def pid(self) -> int:
        return self.process.pid

    def run_send_phase(self, round_number: int) -> list[Message]:
        """Protocol send phase; returns the messages to publish."""
        messages = list(self.process.send(round_number))
        self.decisions.extend(self.process.pop_decisions())
        return messages

    def run_receive_phase(self, round_number: int) -> int:
        """Protocol receive phase; returns how many messages were ingested."""
        batch = self._delivery.take(self.pid, self._gossip_stats["delivered"])
        if batch:
            self.process.receive(round_number, batch)
        return len(batch)
