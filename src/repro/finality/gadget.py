"""The finality gadget: a partially-synchronous overlay on the TOB.

The paper situates its contribution inside the ebb-and-flow design
(§3, citing Neu–Tas–Tse [16] and D'Amato–Zanolini [5]): a dynamically
available chain paired with a partially synchronous *finality* layer.
The available chain always grows; the finality layer certifies a prefix
once a fixed quorum of **all** ``n`` processes — not just the awake
ones — acknowledges it.  Finality therefore stalls when participation
drops below the quorum, but what it certifies can never be reverted as
long as fewer than ``n/3`` processes are Byzantine, regardless of
asynchrony.

This module implements the accounting half of that design:

* every process periodically multicasts a signed acknowledgement of its
  currently delivered log;
* :class:`FinalityGadget` tracks the latest acknowledgement of each
  process and finalises the deepest log that more than 2/3 of all
  processes acknowledge (by extension), monotonically.

The paper's §3 point — reproduced by ``benchmarks/bench_finality.py`` —
is that the *available* component's behaviour under asynchrony is what
the expiration mechanism improves: with an MMR inner protocol the
available chain visibly reorgs during an attack (finality holds but the
user-facing chain rewrites history); with the η-expiration inner
protocol neither layer moves an inch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.chain.block import GENESIS_TIP, BlockId
from repro.chain.shared import TreeLike
from repro.chain.tally import PrefixTally
from repro.core.expiration import LatestVoteStore

#: Classic BFT finality quorum: strictly more than 2/3 of all processes.
DEFAULT_FINALITY_QUORUM = Fraction(2, 3)


@dataclass(frozen=True)
class FinalizationEvent:
    """The finalised prefix advanced to ``tip`` at ``round``."""

    round: int
    tip: BlockId | None
    depth: int
    acks: int


class FinalityGadget:
    """Quorum accounting over the latest acknowledgement per process.

    The gadget is deliberately *static-quorum*: the denominator is the
    total number of processes ``n``, because finality must not be
    reachable by a lonely awake minority (that is the whole
    availability/finality dilemma).  Acknowledgements never expire —
    the finality layer is the partially-synchronous half of the pair.
    """

    def __init__(
        self,
        n: int,
        tree: TreeLike,
        quorum: Fraction = DEFAULT_FINALITY_QUORUM,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one process")
        if not Fraction(1, 2) <= quorum < 1:
            raise ValueError("finality quorum must be in [1/2, 1)")
        self.n = n
        self._tree = tree
        self._quorum = quorum
        self._acks = LatestVoteStore()
        # The latest interpretable ack per process, as an incremental
        # prefix-count tally: "acks extending Λ" is the same subtree
        # count the GA tally queries, so quorum checks are O(1) lookups
        # instead of per-candidate scans over every process's ack.
        self._tally = PrefixTally(tree)
        self._synced: tuple[int, int, int] | None = None
        self.finalized_tip: BlockId | None = GENESIS_TIP
        self.events: list[FinalizationEvent] = []

    def record_ack(self, sender: int, round_number: int, tip: BlockId | None) -> None:
        """Ingest one acknowledgement (equivocations are discarded)."""
        self._acks.record(sender, round_number, tip)

    def _sync(self, up_to_round: int) -> None:
        """Roll the ack tally to the latest acks as of ``up_to_round``.

        Keyed on (round, ack-store version, tree size): repeat queries
        in a quiet round are free, and otherwise only the processes
        whose latest ack changed — or whose acked block was just
        learned — cost count updates.
        """
        key = (up_to_round, self._acks.version, len(self._tree))
        if key == self._synced:
            return
        self._tally.set_votes(self._acks.latest(0, up_to_round).known_to(self._tree))
        self._synced = key

    def ack_count_for(self, tip: BlockId | None, up_to_round: int) -> int:
        """Processes whose latest ack (≤ ``up_to_round``) extends ``tip``."""
        self._sync(up_to_round)
        return self._tally.count(tip)

    def advance(self, round_number: int) -> FinalizationEvent | None:
        """Finalise the deepest quorum-acknowledged extension, if any.

        Returns the finalisation event when the finalised prefix grew.
        Candidates are restricted to logs extending the current
        finalised tip: with an honest-majority quorum two conflicting
        logs can never both gather it, and monotonicity makes the
        restriction sound rather than merely convenient.
        """
        self._sync(round_number)
        # A quorum ≥ 1/2 of all n is strict, so the logs above it form
        # one chain: its deepest node is the only candidate.
        quorum = self._quorum
        best = self._tally.deepest_above(quorum.numerator * self.n // quorum.denominator)
        if best is None:
            return None
        depth, tip = best
        tree = self._tree
        if depth <= tree.depth(self.finalized_tip) or not tree.is_prefix(self.finalized_tip, tip):
            return None
        event = FinalizationEvent(
            round=round_number, tip=tip, depth=depth, acks=self._tally.count(tip)
        )
        self.finalized_tip = tip
        self.events.append(event)
        return event
