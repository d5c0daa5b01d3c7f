"""The process interface the round simulator drives.

A well-behaved process is a deterministic state machine consulted twice
per round, matching the paper's round structure (§2.1): once in the send
phase (beginning of the round, if the process is in ``O_r``) and once in
the receive phase (end of the round, if it is in ``O_{r+1}``).  Asleep
processes are simply not consulted — they "do not execute the protocol".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.sleepy.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.transactions import Mempool
    from repro.crypto.signatures import SecretKey
    from repro.engine.ingest import IngestPipeline
    from repro.sleepy.trace import DecisionEvent


class Process(ABC):
    """A well-behaved protocol participant.

    The seam every substrate drives: ``send``/``receive`` each round,
    :attr:`mempool` for transaction arrivals (``None`` — the default —
    means the process takes none), and :meth:`pop_decisions` after each
    send phase.
    """

    #: Where arriving transactions are offered; ``None`` takes none.
    mempool: Mempool | None = None

    def __init__(self, pid: int) -> None:
        self.pid = pid

    @abstractmethod
    def send(self, round_number: int) -> Sequence[Message]:
        """Send phase of ``round_number``: the messages to multicast."""

    @abstractmethod
    def receive(self, round_number: int, messages: Sequence[Message]) -> None:
        """Receive phase of ``round_number``: ingest delivered messages.

        ``messages`` contains everything the network delivers in this
        phase — for a synchronous round, all messages sent in rounds
        ``≤ round_number`` not delivered to this process before.
        """

    def pop_decisions(self) -> list[DecisionEvent]:
        """Decision events since the last call (none by default)."""
        return []


#: Builds the honest process for ``pid``.  Receives the process id, its
#: secret key, and the run-shared verifier — the
#: :class:`repro.engine.ingest.IngestPipeline`, whose shared ``batch``
#: method processes dispatch their deliveries through.
#:
#: Factories that can build processes on a run-shared
#: :class:`~repro.chain.shared.SharedChain` (one interned tree, a
#: visibility view per receiver) advertise it by setting
#: ``factory.supports_shared_chain = True`` and accepting an optional
#: ``chain=`` keyword; the round simulator then passes its chain in.
#: Substrates without shared memory (the asyncio deployment) simply
#: never pass one, and the factory builds private trees as before.
ProcessFactory = Callable[[int, "SecretKey", "IngestPipeline"], Process]
