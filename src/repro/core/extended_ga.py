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

A read is a pure function of the window it tallies, so two receivers
holding the same window read the same thing: a :class:`GAReads` is a
tally plus the reads it has made, keyed by the window's content.  A GA
over a :class:`~repro.chain.shared.ChainView` reads through its chain's
one instance (one tally per run and β, over the canonical tree); a GA
over a private tree owns its own.  Each receiver still folds and
filters its own window (:meth:`GradedAgreement.tallied_votes`), so a
read is borrowed only between receivers that tally the same votes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from repro.chain.block import GENESIS_TIP, BlockId
from repro.chain.shared import ChainView, TreeLike
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


#: Distinct windows a :class:`GAReads` remembers.  The receivers of one
#: GA round read it in the same send phase and hold a handful of
#: distinct windows between them (one under synchrony; a lagging or
#: freshly woken view may add one), and a window read again is almost
#: always read in the next round (a view's second vote repeats its
#: first).  Eight keeps those; with churn, a Byzantine tenth and
#: asynchrony at n = 50, doubling it saves under 4 % of the reads
#: computed.  An eviction costs a recomputation, never an answer.
READS_HELD = 8


class GARead(NamedTuple):
    """What a round consumes of a window's GA.  With ``m = 0`` nothing is
    output, both tips are the empty log's and the count is 0."""

    m: int
    #: Tip of the longest log output with grade 1.
    grade1: BlockId | None
    #: Tip of the longest log output with any grade.
    graded: BlockId | None
    #: Votes counted for ``grade1``'s log (telemetry's quorum margin).
    grade1_count: int


class GAReads:
    """A prefix tally and the reads it has made, keyed by window content.

    A read depends on the tallied votes, the ancestry of their tips and
    β, and on nothing else: counts are a function of the tallied set,
    every frontier node is an ancestor of a voted tip, and ancestry,
    depth and the ``(depth, id)`` tie-break are the same in every tree
    holding the tip (blocks are content-addressed and trees append-only).
    So ``(frozenset(window.tips.items()), window.senders)`` keys it
    soundly for any tree that holds the window's tips — the canonical
    tree of a shared chain holds every view's — and β is fixed per
    instance.  ``stats`` counts reads ``computed`` and ``shared``.
    """

    def __init__(self, tree: TreeLike, beta: Fraction) -> None:
        self.beta = beta
        self.tally = PrefixTally(tree)
        self.stats = {"computed": 0, "shared": 0}
        self._held: OrderedDict[tuple, GARead] = OrderedDict()

    @classmethod
    def of(cls, tree: TreeLike, beta: Fraction) -> GAReads:
        """The reads a GA over ``tree`` goes through: a view's chain's one
        instance for ``beta``, tallying over the canonical tree, or a
        private tree's own."""
        if not isinstance(tree, ChainView):
            return cls(tree, beta)
        held = tree.chain.scratch("ga_reads")
        reads = held.get(beta)
        if reads is None:
            reads = held[beta] = cls(tree.chain.tree, beta)
        return reads

    def read(self, window: VoteSet) -> GARead:
        """The GA read of ``window`` (every tip in the tally's tree):
        two frontier reads (:meth:`PrefixTally.deepest_above`) when the
        window is new, none when it was read before."""
        key = (frozenset(window.tips.items()), window.senders)
        held = self._held
        read = held.get(key)
        if read is not None:
            held.move_to_end(key)
            self.stats["shared"] += 1
            return read
        tally = self.tally
        tally.set_votes(window)
        m = len(tally)
        if m == 0:
            read = GARead(0, GENESIS_TIP, GENESIS_TIP, 0)
        else:
            # β ∈ (0, 1/2] puts both thresholds below m, the empty log's count.
            threshold1, threshold0 = grade_thresholds(self.beta, m)
            grade1 = tally.deepest_above(threshold1)[1]
            read = GARead(m, grade1, tally.deepest_above(threshold0)[1], tally.count(grade1))
        held[key] = read
        if len(held) > READS_HELD:
            held.popitem(last=False)
        self.stats["computed"] += 1
        return read


class GradedAgreement:
    """Vote store + prefix-tally reads + the rule that connects them."""

    def __init__(self, tree: TreeLike, beta: Fraction = DEFAULT_BETA) -> None:
        check_beta(beta)
        self.tree = tree
        self.beta = beta
        self.votes = LatestVoteStore()
        # Long-lived, and shared by every view of a shared chain:
        # consecutive windows share most votes, so ``set_votes`` pays
        # only for the (old tip → new tip) deltas, and a window some
        # receiver already read is not tallied again.
        self.reads = GAReads.of(tree, beta)

    def tallied_votes(self, lo: int, hi: int) -> VoteSet:
        """``M_r``: one interpretable latest vote per process over ``[lo, hi]``."""
        return self.votes.latest(lo, hi).known_to(self.tree)

    def longest(self, lo: int, hi: int) -> GARead:
        """What Algorithm 1 consumes of the window's GA: ``m``, the tips
        of the longest logs output with grade 1 and with any grade, and
        the grade-1 log's count.

        The cost follows the distinct voted tips, not the chain's
        length, and is paid once per distinct window (:class:`GAReads`).
        """
        return self.reads.read(self.tallied_votes(lo, hi))

    def output(self, lo: int, hi: int) -> GAOutput:
        """The window's full graded output, enumerated (Figure 2) — the
        same frontiers :meth:`longest` reads, walked to the root."""
        tally = self.reads.tally
        tally.set_votes(self.tallied_votes(lo, hi))
        return tally.grade(self.beta)


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
