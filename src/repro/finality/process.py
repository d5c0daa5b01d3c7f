"""The ebb-and-flow process: available chain + finality overlay in one.

Wraps any :class:`~repro.protocols.tob_base.SleepyTOBProcess` (any η;
η = 0 is the original MMR protocol).  The wrapper is transparent to
the round simulator: it forwards the inner protocol's messages and
decisions, adds one signed acknowledgement of the inner delivered log
per round, routes incoming acks into its :class:`FinalityGadget`, and
advances the finalised prefix at every receive phase.

Exposed state: ``delivered_tip`` (the available chain — may move fast
and, for an unprotected inner protocol under attack, may reorg) and
``finalized_tip`` (the certified prefix — may lag, never reverts).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro.chain.block import BlockId
from repro.engine.registry import PROTOCOLS
from repro.finality.gadget import DEFAULT_FINALITY_QUORUM, FinalityGadget, FinalizationEvent
from repro.protocols.graded_agreement import DEFAULT_BETA
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.messages import Message, VerifiedBatch, make_ack
from repro.sleepy.process import Process
from repro.sleepy.trace import DecisionEvent


class EbbAndFlowProcess(Process):
    """A TOB process paired with the finality overlay."""

    def __init__(
        self,
        inner: SleepyTOBProcess,
        key,
        verifier,
        n: int,
        quorum: Fraction = DEFAULT_FINALITY_QUORUM,
    ) -> None:
        super().__init__(inner.pid)
        self.inner = inner
        self._key = key
        self._verifier = verifier
        self.gadget = FinalityGadget(n, inner.tree, quorum=quorum)

    # ------------------------------------------------------------------
    # Views over the two chains
    # ------------------------------------------------------------------
    @property
    def delivered_tip(self) -> BlockId | None:
        """Tip of the available chain (the inner protocol's deliveries)."""
        return self.inner.delivered_tip

    @property
    def finalized_tip(self) -> BlockId | None:
        """Tip of the finalised prefix (never reverts)."""
        return self.gadget.finalized_tip

    @property
    def finalizations(self) -> list[FinalizationEvent]:
        """All finalisation advances, in round order."""
        return self.gadget.events

    # ------------------------------------------------------------------
    # Process interface
    # ------------------------------------------------------------------
    def send(self, round_number: int) -> Sequence[Message]:
        messages = list(self.inner.send(round_number))
        messages.append(
            make_ack(
                self._verifier.registry, self._key, round_number, self.inner.delivered_tip
            )
        )
        return messages

    def receive(self, round_number: int, messages: Sequence[Message]) -> None:
        self.receive_batch(round_number, self._verifier.batch(messages))

    def receive_batch(self, round_number: int, batch: VerifiedBatch) -> None:
        """Route one pre-verified delivery: acks here, the rest inward.

        The shared batch is handed to the inner protocol as-is — its
        ``receive_batch`` only consumes votes and proposals, so the acks
        recorded here are invisible to it, exactly as when they were
        filtered out by hand.
        """
        for sender, ack_round, tip in batch.ack_records():
            self.gadget.record_ack(sender, ack_round, tip)
        self.inner.receive_batch(round_number, batch)
        self.gadget.advance(round_number)

    def pop_decisions(self) -> list[DecisionEvent]:
        """Forward the inner protocol's decisions to the simulator."""
        return self.inner.pop_decisions()


def ebb_and_flow_factory(
    protocol: str,
    eta: int,
    n: int,
    beta: Fraction = DEFAULT_BETA,
    quorum: Fraction = DEFAULT_FINALITY_QUORUM,
):
    """A :data:`~repro.sleepy.process.ProcessFactory` for wrapped processes."""
    build_inner = PROTOCOLS.factory(protocol, eta=eta, beta=beta)

    def factory(pid, key, verifier, chain=None):
        inner = build_inner(pid, key, verifier, chain=chain)
        return EbbAndFlowProcess(inner, key, verifier, n=n, quorum=quorum)

    factory.supports_shared_chain = True
    return factory
