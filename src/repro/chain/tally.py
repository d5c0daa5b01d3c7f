"""The incremental prefix-count tally behind every GA grading.

The paper's tally (Figure 2) counts a vote for ``Λ'`` toward every
prefix ``Λ ⪯ Λ'`` — on the block tree that is exactly a subtree-count
query: ``count(b)`` is the number of tallied votes whose tip lies in
``b``'s subtree.  Every protocol in the repository (the original MMR
TOB, the extended GA of Figure 3, the η-expiration TOB, and the
finality gadget's quorum accounting) needs this same quantity; they
differ only in *which* votes they feed it.

:class:`PrefixTally` maintains the per-node prefix counts incrementally
under vote churn instead of re-walking every vote's ancestor chain per
query:

* :meth:`~PrefixTally.set_votes` — the call every GA instance makes —
  diffs the new vote set against the tallied one, groups the changed
  senders by ``(old tip, new tip)`` and applies each *distinct*
  transition once, weighted by its voter count: one O(log d) LCA and
  one ``±weight`` adjustment of the path between the two tips.  In the
  protocol's steady state all but a few senders move from the same old
  tip to the same new tip, so a GA pays for one or two transitions, not
  for n voters;
* :meth:`~PrefixTally.add_vote` / :meth:`~PrefixTally.remove_vote` /
  :meth:`~PrefixTally.move_vote` are the single-voter forms: one root
  path, or the path between the old and new tip;
* block insertion needs no maintenance at all: a fresh block starts
  with count 0 until a vote reaches its subtree.

:meth:`~PrefixTally.grade` reproduces the Figure 2 grading with exact
integer arithmetic, bit-identical to the historical ``tally_votes``
recount (which is now a thin wrapper over this class).  The golden
traces and ``tests/chain/test_tree_index.py``'s randomized
naive-recount oracle pin that equivalence.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from repro.chain.block import GENESIS_TIP, BlockId
from repro.chain.shared import TreeLike
from repro.chain.tree import UnknownBlockError

#: The paper's default failure ratio (1/3-resilient MMR).
DEFAULT_BETA = Fraction(1, 3)

_MISSING = object()


@dataclass(frozen=True)
class GAOutput:
    """Result of one graded-agreement tally.

    Attributes:
        grade1: tips of logs output with grade 1, sorted by depth.
        grade0: tips of logs output with grade 0 (``> β·m`` but
            ``≤ (1 − β)·m``), sorted by depth.
        m: perceived participation — number of distinct processes whose
            vote entered the tally.
    """

    grade1: tuple[BlockId | None, ...]
    grade0: tuple[BlockId | None, ...]
    m: int

    def all_output(self) -> tuple[BlockId | None, ...]:
        """Tips output with *any* grade (``(Λ, ∗)`` in the paper)."""
        return self.grade1 + self.grade0

    def has_grade1(self, tip: BlockId | None) -> bool:
        """Whether ``tip``'s log was output with grade 1."""
        return tip in self.grade1


def check_beta(beta: Fraction) -> None:
    """Reject failure ratios outside the protocols' (0, 1/2] range."""
    if not Fraction(0) < beta <= Fraction(1, 2):
        # β ≤ 1/2 in every protocol this repository covers; reject junk early.
        raise ValueError(f"failure ratio β must be in (0, 1/2], got {beta}")


class PrefixTally:
    """Per-node prefix-vote counts, maintained incrementally.

    Holds one vote per sender (the caller resolves equivocations and
    window membership — e.g. via
    :class:`~repro.core.expiration.LatestVoteStore`); every vote's tip
    must be present in the tree.  Counts stay exact under any sequence
    of :meth:`set_vote`/:meth:`remove_vote`/:meth:`set_votes` calls and
    under tree growth.
    """

    def __init__(
        self, tree: TreeLike, votes: Mapping[int, BlockId | None] | None = None
    ) -> None:
        self._tree = tree
        self._votes: dict[int, BlockId | None] = {}
        # node -> number of tallied votes for tips in its subtree; only
        # nodes with a non-zero count are present (GENESIS_TIP carries
        # the total while any vote is tallied).
        self._counts: dict[BlockId | None, int] = {}
        # The same counted nodes bucketed by count value (count -> node
        # set, dict-as-set), kept in lock-step with _counts.  grade()
        # scans *buckets*: one threshold comparison per distinct count
        # instead of per node, and buckets below the grade-0 threshold
        # are skipped without touching their nodes — for very wide vote
        # windows (large η, scattered stale votes) most counted nodes
        # are low-count and never visited at all.
        self._by_count: dict[int, dict[BlockId | None, None]] = {}
        if votes:
            self.set_votes(votes)

    def __len__(self) -> int:
        return len(self._votes)

    @property
    def votes(self) -> Mapping[int, BlockId | None]:
        """Read-only view of the tallied vote per sender."""
        return MappingProxyType(self._votes)

    def count(self, tip: BlockId | None) -> int:
        """Votes for logs extending ``tip`` (the paper's prefix count)."""
        if tip not in self._tree:
            raise UnknownBlockError(tip)
        return self._counts.get(tip, 0)

    # ------------------------------------------------------------------
    # Vote churn
    # ------------------------------------------------------------------
    def set_vote(self, sender: int, tip: BlockId | None) -> None:
        """Upsert ``sender``'s vote (add when new, move when changed)."""
        existing = self._votes.get(sender, _MISSING)
        if existing is _MISSING:
            self.add_vote(sender, tip)
        elif existing != tip:
            self.move_vote(sender, tip)

    def add_vote(self, sender: int, tip: BlockId | None) -> None:
        """Tally a new sender's vote — O(depth) count updates."""
        if sender in self._votes:
            raise ValueError(f"sender {sender} already has a tallied vote")
        if tip not in self._tree:
            raise UnknownBlockError(tip)
        self._votes[sender] = tip
        self._adjust_path(tip, GENESIS_TIP, +1)
        total = self._counts.get(GENESIS_TIP, 0)
        self._set_count(GENESIS_TIP, total, total + 1)

    def move_vote(self, sender: int, tip: BlockId | None) -> None:
        """Re-point ``sender``'s vote, adjusting counts only between the
        old and new tip (their LCA path) — not along the whole chain."""
        old = self._votes.get(sender, _MISSING)
        if old is _MISSING:
            raise ValueError(f"sender {sender} has no tallied vote to move")
        if tip not in self._tree:
            raise UnknownBlockError(tip)
        if old == tip:
            return
        self._votes[sender] = tip
        fork = self._tree.common_prefix([old, tip])
        self._adjust_path(tip, fork, +1)
        self._adjust_path(old, fork, -1)

    def remove_vote(self, sender: int) -> None:
        """Untally ``sender``'s vote — O(depth) count updates."""
        old = self._votes.pop(sender, _MISSING)
        if old is _MISSING:
            raise ValueError(f"sender {sender} has no tallied vote to remove")
        self._adjust_path(old, GENESIS_TIP, -1)
        total = self._counts[GENESIS_TIP]
        self._set_count(GENESIS_TIP, total, total - 1)

    def set_votes(self, votes: Mapping[int, BlockId | None]) -> None:
        """Make the tallied set equal ``votes``, by weighted diff.

        One dict scan finds the senders whose vote changed and groups
        them by ``(old tip, new tip)`` — "no vote" on either side for a
        sender entering or leaving.  Each *distinct* transition is then
        applied once with its voter count as the weight: one LCA and one
        ``±weight`` adjustment of the path between the two tips.  The
        protocol's steady state moves almost every sender from the same
        old tip to the same new tip, so a GA costs O(distinct
        transitions · log d) — one or two — not O(voters); building from
        empty costs O(distinct tips · depth), as the historical recount
        did.

        Every new tip is validated before any count moves: a call that
        raises :class:`UnknownBlockError` leaves the tally untouched.
        """
        current = self._votes
        transitions: dict[tuple[object, object], int] = {}
        lookup = votes.get
        for sender, old in current.items():
            new = lookup(sender, _MISSING)
            if new != old:
                key = (old, new)
                transitions[key] = transitions.get(key, 0) + 1
        leaving = sum(w for (_, new), w in transitions.items() if new is _MISSING)
        if len(current) - leaving != len(votes):  # some senders are new
            for sender, new in votes.items():
                if sender not in current:
                    key = (_MISSING, new)
                    transitions[key] = transitions.get(key, 0) + 1
        if not transitions:
            return
        tree = self._tree
        for _old, new in transitions:
            if new is not _MISSING and new not in tree:
                raise UnknownBlockError(new)

        # No count can dip below zero whatever the order: the decrements
        # a node receives are distinct tallied voters leaving its subtree.
        entered = 0
        for (old, new), weight in transitions.items():
            if old is _MISSING:
                self._adjust_path(new, GENESIS_TIP, weight)
                entered += weight
            elif new is _MISSING:
                self._adjust_path(old, GENESIS_TIP, -weight)
                entered -= weight
            else:
                fork = tree.common_prefix((old, new))
                self._adjust_path(new, fork, weight)
                self._adjust_path(old, fork, -weight)
        if entered:
            total = self._counts.get(GENESIS_TIP, 0)
            self._set_count(GENESIS_TIP, total, total + entered)
        current.clear()
        current.update(votes)

    def _set_count(self, node: BlockId | None, old: int, new: int) -> None:
        """Move ``node`` from count ``old`` to ``new`` (count + bucket)."""
        buckets = self._by_count
        if new:
            self._counts[node] = new
            buckets.setdefault(new, {})[node] = None
        else:
            del self._counts[node]
        if old:
            bucket = buckets[old]
            del bucket[node]
            if not bucket:
                del buckets[old]

    def _adjust_path(self, tip: BlockId | None, stop: BlockId | None, delta: int) -> None:
        """Apply ``delta`` to every node from ``tip`` up to, excluding, ``stop``."""
        counts = self._counts
        node = tip
        while node != stop:
            assert node is not None
            old = counts.get(node, 0)
            self._set_count(node, old, old + delta)
            node = self._tree.parent(node)

    # ------------------------------------------------------------------
    # Grading (Figure 2 thresholds, exact integers)
    # ------------------------------------------------------------------
    def grade(self, beta: Fraction = DEFAULT_BETA, m: int | None = None) -> GAOutput:
        """Grade every counted log against the β thresholds.

        ``m`` defaults to the number of tallied votes (the GA's
        perceived participation); callers with a fixed denominator
        (e.g. a static quorum over all ``n`` processes) may override it.

        The scan is batched by count value: ``count·den > threshold``
        depends only on the count, so each bucket is classified with
        one integer comparison (exact — ``count > ⌊t/den⌋`` iff
        ``count·den > t`` for integer counts) and whole sub-threshold
        buckets are skipped without visiting their nodes.
        """
        check_beta(beta)
        if m is None:
            m = len(self._votes)
        if m == 0:
            return GAOutput(grade1=(), grade0=(), m=0)

        num, den = beta.numerator, beta.denominator
        threshold1 = ((den - num) * m) // den
        threshold0 = (num * m) // den
        grade1: list[BlockId | None] = []
        grade0: list[BlockId | None] = []
        for count, nodes in self._by_count.items():
            if count > threshold1:
                grade1.extend(nodes)
            elif count > threshold0:
                grade0.extend(nodes)

        depth = self._tree.depth

        def sort_key(tip: BlockId | None) -> tuple[int, str]:
            return (depth(tip), tip if tip is not None else "")

        return GAOutput(
            grade1=tuple(sorted(grade1, key=sort_key)),
            grade0=tuple(sorted(grade0, key=sort_key)),
            m=m,
        )
