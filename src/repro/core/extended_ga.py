"""The graded agreement every protocol here runs (paper Figures 2 and 3).

A GA instance started in round ``g`` grades, per process, its **latest
unexpired** vote over the rounds ``[lo, g]``: round-``g`` votes plus the
votes of an initial set ``M₀`` (rounds ``< g``) from processes silent in
round ``g``; a process whose latest in-window vote is an equivocation
contributes nothing, and a vote for a log the receiver cannot interpret
is left out.  ``lo = g`` (empty ``M₀``) is Figure 2; the modified
Algorithm 1 uses ``lo = g − η`` (§3.3).

Lemma 1: under ``|H_g| > 2/3·|O_g ∪ P₀|`` the output satisfies the five
GA properties *plus* **clique validity**, which holds even in
asynchronous rounds and drives Theorem 2.  :class:`GradedAgreement` is
the one implementation: ``SleepyTOBProcess`` holds one for the whole
run, and so does each :class:`ExtendedGAInstance` the suites sample.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.chain.block import GENESIS_TIP, BlockId
from repro.chain.shared import TreeLike
from repro.chain.tally import (
    DEFAULT_BETA,
    GAOutput,
    PrefixTally,
    VoteSet,
    check_beta,
    grade_thresholds,
)
from repro.core.expiration import LatestVoteStore
from repro.crypto.signatures import SecretKey
from repro.sleepy.messages import Message, make_vote
from repro.sleepy.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only (engine sits above core)
    from repro.engine.ingest import IngestPipeline


class GradedAgreement:
    """Vote store + prefix tally + the rule that connects them."""

    def __init__(self, tree: TreeLike, beta: Fraction = DEFAULT_BETA) -> None:
        check_beta(beta)
        self.tree = tree
        self.beta = beta
        self.votes = LatestVoteStore()
        # Long-lived: consecutive windows share most votes, and
        # ``set_votes`` pays only for the (old tip → new tip) deltas.
        self.tally = PrefixTally(tree)

    def tallied_votes(self, lo: int, hi: int) -> VoteSet:
        """``M_r``: one interpretable latest vote per process over ``[lo, hi]``."""
        return self.votes.latest(lo, hi).known_to(self.tree)

    def longest(self, lo: int, hi: int) -> tuple[int, BlockId | None, BlockId | None]:
        """What Algorithm 1 consumes of the window's GA: ``(m, tip of the
        longest log output with grade 1, tip of the longest log output
        with any grade)``.  With ``m = 0`` nothing is output and both
        tips are the empty log's.

        Two frontier reads (:meth:`PrefixTally.deepest_above`); the
        cost follows the distinct voted tips, not the chain's length.
        """
        tally = self.tally
        tally.set_votes(self.tallied_votes(lo, hi))
        m = len(tally)
        if m == 0:
            return 0, GENESIS_TIP, GENESIS_TIP
        # β ∈ (0, 1/2] puts both thresholds below m, the empty log's count.
        threshold1, threshold0 = grade_thresholds(self.beta, m)
        return m, tally.deepest_above(threshold1)[1], tally.deepest_above(threshold0)[1]

    def output(self, lo: int, hi: int) -> GAOutput:
        """The window's full graded output, enumerated (Figure 2) — the
        same frontiers :meth:`longest` reads, walked to the root."""
        self.tally.set_votes(self.tallied_votes(lo, hi))
        return self.tally.grade(self.beta)


@dataclass(frozen=True)
class InitialVote:
    """One vote in ``M₀``: ``sender`` voted ``tip`` in some round ``< g``."""

    sender: int
    round: int
    tip: BlockId | None


class ExtendedGAInstance:
    """One GA of Figure 3: ``M₀`` up front, round-``g`` votes as they arrive
    (``ga_round`` defaults to the round after the latest ``M₀`` vote)."""

    def __init__(
        self,
        tree: TreeLike,
        initial_votes: Iterable[InitialVote] = (),
        beta: Fraction = DEFAULT_BETA,
        ga_round: int | None = None,
    ) -> None:
        m0 = list(initial_votes)
        if ga_round is None:
            ga_round = 1 + max((vote.round for vote in m0), default=-1)
        self.ga_round = ga_round
        self.ga = GradedAgreement(tree, beta)
        for vote in m0:
            if vote.round >= ga_round:
                raise ValueError("an M₀ vote must precede the GA round")
            self.ga.votes.record(vote.sender, vote.round, vote.tip)

    def add_round_vote(self, sender: int, tip: BlockId | None) -> None:
        """Record a vote received in the GA round itself."""
        self.ga.votes.record(sender, self.ga_round, tip)

    def tallied_votes(self) -> VoteSet:
        """``M_r`` over ``M₀`` and the round votes received so far."""
        return self.ga.tallied_votes(0, self.ga_round)

    def output(self) -> GAOutput:
        """The GA's output on the votes received so far."""
        return self.ga.output(0, self.ga_round)


class ExtendedGAProcess(Process):
    """A one-shot participant of Figure 3, driven by the round simulator.

    Awake processes vote for their input in round ``ga_round``; every
    receiver (including processes that were asleep in the send phase —
    the two-phase awakeness of §2.1) tallies what it got on top of its
    initial set.  With no initial set this is Figure 2's participant.
    """

    def __init__(
        self,
        pid: int,
        key: SecretKey,
        verifier: IngestPipeline,
        tree: TreeLike,
        input_tip: BlockId | None,
        initial_votes: Iterable[InitialVote] = (),
        ga_round: int = 0,
        beta: Fraction = DEFAULT_BETA,
    ) -> None:
        super().__init__(pid)
        self._key = key
        self._verifier = verifier
        self._input_tip = input_tip
        self.instance = ExtendedGAInstance(tree, initial_votes, beta, ga_round)
        self.output: GAOutput | None = None

    def send(self, round_number: int) -> Sequence[Message]:
        if round_number != self.instance.ga_round:
            return ()
        return [make_vote(self._verifier.registry, self._key, round_number, self._input_tip)]

    def receive(self, round_number: int, messages: Sequence[Message]) -> None:
        # Only round-g votes are of this GA; M₀ was fixed at construction.
        g = self.instance.ga_round
        round_votes = self._verifier.batch(messages).vote_table().get(g)
        if round_votes:
            self.instance.ga.votes.record_table({g: round_votes})
        self.output = self.instance.output()
