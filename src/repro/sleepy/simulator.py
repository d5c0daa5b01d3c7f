"""The round-by-round execution engine (paper §2.1, "Round structure").

A simulation runs the round step both substrates share
(:func:`~repro.engine.round.step`) without waiting between its sends
and its receive phases.  Its dissemination layer is one
:class:`~repro.engine.bus.MessageBus`, which keeps messages alive even
if the sender goes to sleep; a receiver takes from it, in a synchronous
round, *all* messages sent in rounds ``≤ r`` it has not yet received
(queue-on-sleep and catch-up-on-wake) and in an asynchronous round the
subset the adversary chooses, which must be deliverable.  Each round
starts by compacting the bus and releasing the verdicts of what it
dropped; ``eta``, the protocol's expiration period, sets how long the
bus keeps a dedup key (:func:`~repro.sleepy.horizon.seen_horizon`).
The trace is recorded by the same :class:`~repro.sleepy.trace.
TraceRecorder` each deployment shard feeds, and each round is closed
once its receive phases are done.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.chain.shared import SharedChain
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import CorruptionTracker
from repro.engine.bus import MessageBus
from repro.engine.conditions import NetworkConditions
from repro.engine.errors import ModelViolationError, UndeliverableMessageError
from repro.engine.ingest import IngestPipeline
from repro.engine.round import step
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.horizon import seen_horizon
from repro.sleepy.messages import Message
from repro.sleepy.process import Process, ProcessFactory, build_process
from repro.sleepy.schedule import SleepSchedule
from repro.sleepy.trace import Trace, TraceRecorder

__all__ = ["ModelViolationError", "ProcessFactory", "Simulation"]


class Simulation:
    """Drives one execution of a protocol in the sleepy round model.

    ``arrivals(r)`` are the transactions due at the start of round ``r``
    (:meth:`~repro.engine.spec.RunSpec.arrivals`); none by default.
    """

    def __init__(
        self,
        registry: KeyRegistry,
        schedule: SleepSchedule,
        adversary: Adversary,
        conditions: NetworkConditions,
        process_factory: ProcessFactory,
        meta: dict | None = None,
        eta: int = 0,
        arrivals: Callable[[int], Sequence[Transaction]] = lambda _round: (),
    ) -> None:
        if schedule.n != registry.n:
            raise ValueError("schedule and registry disagree on the number of processes")
        self.registry = registry
        self.schedule = schedule
        self.adversary = adversary
        self.conditions = conditions
        self.arrivals = arrivals
        #: The run-shared ingest pipeline every process verifies through.
        self.pipeline = IngestPipeline(registry)

        #: The run's interned chain.  Its canonical tree is also the
        #: omniscient analysis tree (every block anyone creates lands in
        #: it exactly once), and chain-sharing process factories receive
        #: it so each receiver holds a visibility view instead of a
        #: private copy — one tree per run, not n + 1.
        self.chain = SharedChain()
        #: Records the trace as the run goes, into the canonical tree.
        self.record = TraceRecorder(registry.n, tree=self.chain.tree, meta=meta)
        self.trace: Trace = self.record.trace
        self.corruption = CorruptionTracker(adversary, AdversaryContext(registry, self.chain.tree))

        #: The dissemination layer (indexed per-recipient delivery state);
        #: it forgets a dedup key η + 8 rounds after accepting it.
        self.bus = MessageBus(registry.n, seen_horizon(eta))
        #: Dissemination of a publish: the bus takes each content once.
        self.publish = self.bus.publish
        #: Whether the round being run is asynchronous.
        self._asynchronous = False

        self.processes: dict[int, Process] = {
            pid: build_process(
                process_factory, pid, registry.secret_key(pid), self.pipeline, self.chain
            )
            for pid in range(registry.n)
        }
        self.nodes = {pid: _Node(process, self) for pid, process in self.processes.items()}

    @property
    def delivery(self) -> MessageBus:
        """What the round step enters each round: the bus itself."""
        return self.bus

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, num_rounds: int) -> Trace:
        """Execute ``num_rounds`` rounds (continuing from where we stopped)."""
        start = self.trace.horizon
        for r in range(start, start + num_rounds):
            self._asynchronous = self.conditions.is_asynchronous(r)
            for _ in step(self, r):
                pass  # the receive instant: nothing to wait for
            byz = self.corruption.peek(r)
            self.record.close_round(r, self.schedule.awake(r), byz, self._asynchronous)
        return self.trace


class _Node:
    """A simulated process as the round step runs it: its decisions go to
    the trace, and it takes what is pending for it on the bus or, in an
    asynchronous round, what the adversary chooses of it."""

    def __init__(self, process: Process, simulation: Simulation) -> None:
        self.process, self._simulation = process, simulation

    def run_send_phase(self, round_number: int) -> list[Message]:
        messages = list(self.process.send(round_number))
        self._simulation.record.decided(self.process.pop_decisions())
        return messages

    def run_receive_phase(self, round_number: int) -> None:
        sim, pid = self._simulation, self.process.pid
        bus = sim.bus
        if sim._asynchronous:
            pending = bus.deliverable(pid)
            batch = list(sim.adversary.deliver(round_number, pid, pending, sim.corruption.ctx))
            try:
                bus.deliver_chosen(pid, batch, pending=pending)
            except UndeliverableMessageError:
                raise ModelViolationError(
                    "adversary delivered a message outside the deliverable set"
                ) from None
        else:
            batch = bus.deliver_all(pid)
        if batch:
            self.process.receive(round_number, batch)
