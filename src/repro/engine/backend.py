"""The execution-backend interface plus the model logic both share.

An :class:`ExecutionBackend` takes a :class:`~repro.engine.spec.RunSpec`
and produces an :class:`EngineResult` — a standard
:class:`~repro.sleepy.trace.Trace` plus substrate-level measurements.
Two implementations exist: the deterministic round simulator
(:mod:`repro.engine.sim_backend`) and the wall-clock asyncio deployment
(:mod:`repro.engine.deploy_backend`).  Everything a backend must agree
on — protocol construction, transaction arrival, corruption
bookkeeping, trace metadata, message-kind accounting — lives here or in
the registry, written once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.chain.transactions import Transaction
from repro.engine.errors import ModelViolationError
from repro.engine.registry import PROTOCOLS, ProtocolRegistry
from repro.engine.spec import RunSpec
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.messages import Message, ProposeMessage, VoteMessage
from repro.sleepy.process import Process
from repro.sleepy.trace import Trace


@dataclass
class EngineResult:
    """What an execution backend hands back."""

    trace: Trace
    backend: str
    wall_seconds: float = 0.0
    messages_sent: int = 0
    #: Substrate-specific extras (e.g. the deployment's node objects).
    extras: dict = field(repr=False, default_factory=dict)


class ExecutionBackend(ABC):
    """One substrate that can execute a :class:`RunSpec`."""

    #: Human-readable substrate name (recorded in trace metadata).
    name: str = "abstract"

    #: Whether sweeps may ship this backend to process-pool workers.
    #: Real-time substrates (the asyncio deployment) set this False and
    #: run in :func:`~repro.engine.sweep.stream_sweep`'s serial lane —
    #: still streamed, still journaled, just not pooled.
    poolable: bool = True

    @abstractmethod
    def execute(self, spec: RunSpec) -> EngineResult:
        """Run ``spec`` to completion and assemble the result."""

    def identity(self) -> object:
        """Content identity of this backend for sweep-journal cell keys.

        Covers the backend's class and configuration, so rows journaled
        by one substrate (or one configuration of it) are never reused
        by another.  Wrappers that only instrument an inner backend
        (counters, tracers) should override this to delegate to
        ``inner.identity()`` — instrumentation does not change what a
        cell computes.
        """
        from repro.engine.spec import canonical_form

        return canonical_form(self)


def run_spec(spec: RunSpec, backend: ExecutionBackend | None = None) -> EngineResult:
    """Execute ``spec`` on ``backend`` (default: the round simulator)."""
    if backend is None:
        from repro.engine.sim_backend import SimulationBackend

        backend = SimulationBackend()
    return backend.execute(spec)


# ----------------------------------------------------------------------
# Shared model logic
# ----------------------------------------------------------------------
def base_meta(spec: RunSpec, registry: ProtocolRegistry = PROTOCOLS, **extra) -> dict:
    """The trace metadata every backend records for a run."""
    return {
        "protocol": spec.protocol,
        "eta": registry.effective_eta(spec.protocol, spec.eta),
        "beta": spec.beta,
        "seed": spec.seed,
        **extra,
        **spec.meta,
    }


def offer_transactions(process: Process, arrivals: Sequence[Transaction]) -> None:
    """Deliver ``arrivals`` into one awake process's mempool (if it has one)."""
    mempool = process.mempool
    if mempool is None:
        return
    for tx in arrivals:
        mempool.add(tx)


def count_kinds(messages: Iterable[Message]) -> tuple[int, int, int]:
    """``(votes, proposes, other)`` over ``messages``."""
    votes = proposes = other = 0
    for message in messages:
        if isinstance(message, VoteMessage):
            votes += 1
        elif isinstance(message, ProposeMessage):
            proposes += 1
        else:
            other += 1
    return votes, proposes, other


class CorruptionTracker:
    """Adversary corruption bookkeeping, identical on every substrate.

    Enforces the growing-adversary model (corruption is monotone) and
    hands the adversary the keys of newly corrupted processes.
    """

    def __init__(self, adversary: Adversary, ctx: AdversaryContext) -> None:
        self._adversary = adversary
        self._ctx = ctx
        self._prev: frozenset[int] = frozenset()

    def corrupted(self, round_number: int) -> frozenset[int]:
        """``B_r``, with model enforcement and key hand-over."""
        byz = self._adversary.byzantine(round_number)
        if not byz >= self._prev:
            raise ModelViolationError("growing adversary shrank its corrupted set")
        self._prev = byz
        for pid in byz:
            self._ctx.grant_key(pid)
        return byz

    def peek(self, round_number: int) -> frozenset[int]:
        """Read ``B_r`` without disturbing monotonicity tracking."""
        return self._adversary.byzantine(round_number)


def check_honest_message(message: Message, pid: int, round_number: int) -> None:
    """Enforce honest-sender invariants (correct signer, correct round tag)."""
    if message.sender != pid:
        raise ModelViolationError(f"honest process {pid} signed as {message.sender}")
    if message.round != round_number:
        raise ModelViolationError(
            f"honest process {pid} mis-tagged round {message.round} at round {round_number}"
        )


def check_adversary_message(message: Message, byz: frozenset[int]) -> None:
    """Enforce that the adversary only signs as corrupted processes."""
    if message.sender not in byz:
        raise ModelViolationError(
            f"adversary sent as process {message.sender}, which is not corrupted"
        )
