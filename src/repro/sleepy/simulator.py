"""The round-by-round execution engine (paper §2.1, "Round structure").

Each round ``r``:

1. **Send phase** — every well-behaved process in ``H_r`` multicasts the
   messages its protocol dictates; Byzantine processes multicast
   whatever the adversary crafts.  All messages enter the
   :class:`~repro.engine.bus.MessageBus` (the peer-to-peer dissemination
   layer, which keeps messages alive even if the sender goes to sleep).
2. **Receive phase** — every well-behaved process in ``H_{r+1}``
   receives messages: in a synchronous round, *all* messages sent in
   rounds ``≤ r`` it has not yet received (which realises queue-on-sleep
   and catch-up-on-wake); in an asynchronous round, the subset chosen by
   the adversary.

The engine enforces the model's fine print: the adversary's delivery
choice must be a subset of what is deliverable, corruption must be
monotone for a growing adversary, Byzantine processes never sleep, and
asleep processes are never consulted.

This module is the simulator half of the unified execution engine; the
shared pieces (message bus, corruption tracking, message accounting)
live in :mod:`repro.engine` and are also used by the asyncio deployment
runner.
"""

from __future__ import annotations

from repro.chain.shared import SharedChain
from repro.chain.store import BlockBuffer
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import (
    CorruptionTracker,
    check_adversary_message,
    check_honest_message,
    count_kinds,
)
from repro.engine.bus import MessageBus
from repro.engine.conditions import NetworkConditions
from repro.engine.errors import ModelViolationError, UndeliverableMessageError
from repro.engine.ingest import IngestPipeline
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.messages import Message, ProposeMessage
from repro.sleepy.process import Process, ProcessFactory
from repro.sleepy.schedule import SleepSchedule
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace

__all__ = ["ModelViolationError", "ProcessFactory", "Simulation"]


class Simulation:
    """Drives one execution of a protocol in the sleepy round model."""

    def __init__(
        self,
        registry: KeyRegistry,
        schedule: SleepSchedule,
        adversary: Adversary,
        conditions: NetworkConditions,
        process_factory: ProcessFactory,
        meta: dict | None = None,
    ) -> None:
        if schedule.n != registry.n:
            raise ValueError("schedule and registry disagree on the number of processes")
        self.registry = registry
        self.schedule = schedule
        self.adversary = adversary
        self.conditions = conditions
        #: The run-shared ingest pipeline every process verifies through.
        self.pipeline = IngestPipeline(registry)

        #: The run's interned chain.  Its canonical tree is also the
        #: omniscient analysis tree (every block anyone creates lands in
        #: it exactly once), and chain-sharing process factories receive
        #: it so each receiver holds a visibility view instead of a
        #: private copy — one tree per run, not n + 1.
        self.chain = SharedChain()
        self._tree = self.chain.tree
        # The omniscient trace tree must be lossless (analysis depends
        # on resolving every decided tip), so its buffer never evicts.
        self._tree_buffer = BlockBuffer(self._tree, max_orphans_per_source=None)
        self._ctx = AdversaryContext(registry, self._tree)
        self._corruption = CorruptionTracker(adversary, self._ctx)

        # Factories advertise view support via ``supports_shared_chain``;
        # unmarked factories — e.g. bespoke test processes, or a plain
        # wrapper an equivalence oracle puts around a marked one — keep
        # building private trees.
        use_chain = getattr(process_factory, "supports_shared_chain", False)
        self.processes: dict[int, Process] = {
            pid: (
                process_factory(pid, registry.secret_key(pid), self.pipeline, chain=self.chain)
                if use_chain
                else process_factory(pid, registry.secret_key(pid), self.pipeline)
            )
            for pid in range(registry.n)
        }

        #: The dissemination layer (indexed per-recipient delivery state).
        self.bus = MessageBus(registry.n)
        self.trace = Trace(n=registry.n, tree=self._tree, meta=dict(meta or {}))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, num_rounds: int) -> Trace:
        """Execute ``num_rounds`` rounds (continuing from where we stopped)."""
        start = self.trace.horizon
        for r in range(start, start + num_rounds):
            self._run_round(r)
        return self.trace

    def _run_round(self, r: int) -> None:
        byz = self._corruption.corrupted(r)
        honest = self.schedule.awake(r) - byz
        awake = honest | byz  # Byzantine processes never sleep (§2.1).
        self._ctx.round = r
        self.bus.begin_round(r)
        decisions: list[DecisionEvent] = []

        # --- Send phase ---------------------------------------------------
        for pid in sorted(honest):
            process = self.processes[pid]
            for message in process.send(r):
                check_honest_message(message, pid, r)
                self._publish(message)
            decisions.extend(process.pop_decisions())
        for message in self.adversary.send(r, self._ctx):
            check_adversary_message(message, byz)
            self._publish(message)

        votes, proposes, other = count_kinds(self.bus.round_messages(r))

        # --- Receive phase --------------------------------------------------
        asynchronous = self.conditions.is_asynchronous(r)
        receivers = self.schedule.awake(r + 1) - self._corruption.peek(r + 1)
        for pid in sorted(receivers):
            if asynchronous:
                deliverable = self.bus.deliverable(pid)
                delivered = list(self.adversary.deliver(r, pid, deliverable, self._ctx))
                try:
                    self.bus.deliver_chosen(pid, delivered, pending=deliverable)
                except UndeliverableMessageError:
                    raise ModelViolationError(
                        "adversary delivered a message outside the deliverable set"
                    ) from None
            else:
                delivered = self.bus.deliver_all(pid)
            if delivered:
                self.processes[pid].receive(r, delivered)

        self.trace.rounds.append(
            RoundRecord(
                round=r,
                awake=frozenset(awake),
                honest=frozenset(honest),
                byzantine=frozenset(byz),
                asynchronous=asynchronous,
                votes_sent=votes,
                proposes_sent=proposes,
                other_sent=other,
            )
        )
        self.trace.decisions.extend(decisions)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _publish(self, message: Message) -> None:
        if not self.bus.publish(message):
            return
        if isinstance(message, ProposeMessage) and message.block is not None:
            self._tree_buffer.offer(message.block)
