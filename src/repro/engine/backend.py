"""The execution-backend interface plus the model logic both share.

An :class:`ExecutionBackend` takes a :class:`~repro.engine.spec.RunSpec`
and produces an :class:`EngineResult` — a standard
:class:`~repro.sleepy.trace.Trace` plus substrate-level measurements.
Two implementations exist: the deterministic round simulator
(:mod:`repro.engine.sim_backend`) and the wall-clock asyncio deployment
(:mod:`repro.engine.deploy_backend`).  Everything a backend must agree
on — protocol construction, corruption bookkeeping, message checks,
trace metadata — lives here or in the registry, written once; both run
one round step (:func:`~repro.engine.round.step`) and build their trace
with one :class:`~repro.sleepy.trace.TraceRecorder`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.engine.errors import ModelViolationError
from repro.engine.registry import PROTOCOLS
from repro.engine.spec import RunSpec, canonical_form
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.messages import Message
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
        return canonical_form(self)


def run_spec(spec: RunSpec, backend: ExecutionBackend | None = None) -> EngineResult:
    """Execute ``spec`` on ``backend`` (default: the round simulator)."""
    if backend is None:
        # Local: sim_backend subclasses ExecutionBackend from this module.
        from repro.engine.sim_backend import SimulationBackend

        backend = SimulationBackend()
    return backend.execute(spec)


# ----------------------------------------------------------------------
# Shared model logic
# ----------------------------------------------------------------------
def base_meta(spec: RunSpec, **extra) -> dict:
    """The trace metadata every backend records for a run."""
    return {
        "protocol": spec.protocol,
        "eta": PROTOCOLS.effective_eta(spec.protocol, spec.eta),
        "beta": spec.beta,
        "seed": spec.seed,
        **extra,
        **spec.meta,
    }


class CorruptionTracker:
    """Adversary corruption bookkeeping, identical on every substrate.

    Enforces the growing-adversary model (corruption is monotone) and
    hands the adversary the keys of newly corrupted processes.
    """

    def __init__(self, adversary: Adversary, ctx: AdversaryContext) -> None:
        self._adversary = adversary
        #: What the adversary may see and sign with.
        self.ctx = ctx
        self._prev: frozenset[int] = frozenset()

    def corrupted(self, round_number: int) -> frozenset[int]:
        """``B_r``, with model enforcement and key hand-over."""
        byz = self._adversary.byzantine(round_number)
        if not byz >= self._prev:
            raise ModelViolationError("growing adversary shrank its corrupted set")
        self._prev = byz
        for pid in byz:
            self.ctx.grant_key(pid)
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
