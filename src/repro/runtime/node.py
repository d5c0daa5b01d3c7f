"""A deployed node: a TOB process driven by the round clock over gossip.

Bridges the round-by-round protocol abstraction and the real-time
substrate: at the beginning of each round the node runs the protocol's
send phase and publishes the messages into the gossip overlay; late in
the round (the receive phase) it hands everything that arrived since the
last receive phase to the protocol.  Messages that arrive while the node
is asleep stay buffered and are delivered at its next awake receive
phase, exactly like the queue-on-sleep rule of §2.1.
"""

from __future__ import annotations

from repro.chain.transactions import Mempool
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.messages import Message
from repro.sleepy.schedule import SleepSchedule
from repro.sleepy.trace import DecisionEvent


class DeployedNode:
    """One process plus its gossip-facing buffers."""

    def __init__(
        self,
        process: SleepyTOBProcess,
        schedule: SleepSchedule | None = None,
        mempool_capacity: int | None = None,
    ) -> None:
        self.process = process
        if mempool_capacity is not None and process.mempool is not None:
            # Service runs bound the pool (see Mempool): swap in a
            # capacity-limited pool before any transaction is offered.
            process.mempool = Mempool(capacity=mempool_capacity)
        self._schedule = schedule
        self._inbox: list[Message] = []
        self.decisions: list[DecisionEvent] = []
        self.rounds_participated: list[int] = []

    @property
    def pid(self) -> int:
        return self.process.pid

    def awake(self, round_number: int) -> bool:
        """Whether this node participates in ``round_number`` (``O_r``)."""
        if self._schedule is None:
            return True
        return self.pid in self._schedule.awake(round_number)

    def on_gossip(self, message: Message) -> None:
        """Gossip delivery: buffer until the next awake receive phase."""
        self._inbox.append(message)

    def run_send_phase(self, round_number: int) -> list[Message]:
        """Protocol send phase; returns the messages to publish."""
        if not self.awake(round_number):
            return []
        self.rounds_participated.append(round_number)
        messages = list(self.process.send(round_number))
        self.decisions.extend(self.process.pop_decisions())
        return messages

    def run_receive_phase(self, round_number: int) -> int:
        """Protocol receive phase; returns how many messages were ingested.

        Receive phases belong to processes awake at the *end* of the
        round (``O_{r+1}``).
        """
        if not self.awake(round_number + 1):
            return 0
        batch, self._inbox = self._inbox, []
        if batch:
            self.process.receive(round_number, batch)
        return len(batch)
