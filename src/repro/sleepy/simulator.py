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

A message is kept while it can still be delivered: each round starts by
compacting the bus (:meth:`~repro.engine.bus.MessageBus.advance`) and
releasing the verdicts of what it dropped.  ``eta`` is the protocol's
expiration period, which sets how long the bus keeps a dedup key
(:func:`~repro.sleepy.horizon.seen_horizon`).

This module is the simulator half of the unified execution engine; the
shared pieces (message bus, corruption tracking) live in
:mod:`repro.engine`, and the trace is recorded by the same
:class:`~repro.sleepy.trace.TraceRecorder` each deployment shard feeds:
every message the bus accepts is recorded into its round, and each round
is closed once its receive phase is done.
"""

from __future__ import annotations

from repro.chain.shared import SharedChain
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import CorruptionTracker, check_adversary_message, check_honest_message
from repro.engine.bus import MessageBus
from repro.engine.conditions import NetworkConditions
from repro.engine.errors import ModelViolationError, UndeliverableMessageError
from repro.engine.ingest import IngestPipeline
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.horizon import seen_horizon
from repro.sleepy.messages import Message
from repro.sleepy.process import Process, ProcessFactory, build_process
from repro.sleepy.schedule import SleepSchedule
from repro.sleepy.trace import Trace, TraceRecorder

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
        eta: int = 0,
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
        #: Records the trace as the run goes, into the canonical tree.
        self.recorder = TraceRecorder(registry.n, tree=self.chain.tree, meta=meta)
        self.trace: Trace = self.recorder.trace
        self._ctx = AdversaryContext(registry, self.chain.tree)
        self._corruption = CorruptionTracker(adversary, self._ctx)

        self.processes: dict[int, Process] = {
            pid: build_process(
                process_factory, pid, registry.secret_key(pid), self.pipeline, self.chain
            )
            for pid in range(registry.n)
        }

        #: The dissemination layer (indexed per-recipient delivery state);
        #: it forgets a dedup key η + 8 rounds after accepting it.
        self.bus = MessageBus(registry.n, seen_horizon(eta))

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
        scheduled = self.schedule.awake(r)
        self._ctx.round = r
        # What no receiver outside ``B_r`` can still be delivered is
        # freed: the bus's log prefix and stale keys, then every verdict
        # older than the bus's oldest deliverable message.
        self.bus.advance(r, byz)
        self.pipeline.interner.advance(r, self.bus.floor)

        # --- Send phase ---------------------------------------------------
        for pid in sorted(scheduled - byz):
            process = self.processes[pid]
            for message in process.send(r):
                check_honest_message(message, pid, r)
                self._publish(r, message)
            self.recorder.decided(process.pop_decisions())
        for message in self.adversary.send(r, self._ctx):
            check_adversary_message(message, byz)
            self._publish(r, message)

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

        self.recorder.close_round(r, scheduled, byz, asynchronous)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _publish(self, r: int, message: Message) -> None:
        if self.bus.publish(message):
            self.recorder.published(r, message)
