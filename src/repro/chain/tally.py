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

:meth:`~PrefixTally.deepest_above` is the one threshold rule every
grading goes through.  Prefix counts never increase walking away from
the root, and every counted node is an ancestor-or-self of a voted tip,
so the nodes above a threshold are the ancestor closure of their
*frontier* — per distinct voted tip, the first node on its root path
whose count exceeds the threshold.  Algorithm 1 only ever consumes the
*longest* log of each grade, which is the deepest frontier node: a read
whose cost follows the handful of distinct voted tips, not the length of
the chain they extend.  :meth:`~PrefixTally.grade` is the derived
enumeration (the paths from the two frontiers to the root, Figure 2's
full output) that the Lemma 1 suites and analysis use; exact integer
arithmetic, pinned against a naive recount by
``tests/chain/test_tree_index.py`` and the golden traces.
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


#: The protocols' range of failure ratios is ``(0, 1/2]``.
_BETA_ABOVE = Fraction(0)
_BETA_AT_MOST = Fraction(1, 2)

#: Parent steps a frontier walk takes before it bisects on depth.
_WALK_STEPS = 8


@dataclass(frozen=True)
class GAOutput:
    """Figure 2's full output: every log a tally grades, enumerated.

    Derived by :meth:`PrefixTally.grade` from the same two frontiers the
    protocol reads its longest logs from (:meth:`PrefixTally.
    deepest_above`): ``tree.longest(grade1)`` and
    ``tree.longest(all_output())`` are exactly those two reads.  The
    enumeration is as long as the chain, so it is for the Lemma 1
    suites and analysis, not for a round's hot path.

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
    if not _BETA_ABOVE < beta <= _BETA_AT_MOST:
        # β ≤ 1/2 in every protocol this repository covers; reject junk early.
        raise ValueError(f"failure ratio β must be in (0, 1/2], got {beta}")


def grade_thresholds(beta: Fraction, m: int) -> tuple[int, int]:
    """``(⌊(1 − β)·m⌋, ⌊β·m⌋)``: a log is output with grade 1 when its
    count exceeds the first and with some grade when it exceeds the
    second.  Exact: for integer counts ``count > ⌊t/den⌋`` iff
    ``count·den > t``.
    """
    num, den = beta.numerator, beta.denominator
    return ((den - num) * m) // den, (num * m) // den


class PrefixTally:
    """Per-node prefix-vote counts, maintained incrementally.

    Holds one vote per sender (the caller resolves equivocations and
    window membership — e.g. via
    :class:`~repro.core.expiration.LatestVoteStore`); every vote's tip
    must be present in the tree.  Counts stay exact under any sequence
    of :meth:`set_vote`/:meth:`remove_vote`/:meth:`set_votes` calls and
    under tree growth.

    Reading is one rule, :meth:`deepest_above`: the longest log counted
    more than a threshold — what Algorithm 1 and the finality gadget
    consume — found from the frontier of the distinct voted tips, at a
    cost that does not grow with the chain.  :meth:`grade` enumerates
    the whole graded set from the same frontiers.
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
        self._adjust_total(+1)

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
        self._adjust_total(-1)

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
            self._adjust_total(entered)
        current.clear()
        current.update(votes)

    def _adjust_total(self, delta: int) -> None:
        """Apply ``delta`` to the count the virtual root carries."""
        total = self._counts.get(GENESIS_TIP, 0) + delta
        if total:
            self._counts[GENESIS_TIP] = total
        else:
            del self._counts[GENESIS_TIP]

    def _adjust_path(self, tip: BlockId | None, stop: BlockId | None, delta: int) -> None:
        """Apply ``delta`` to every node from ``tip`` up to, excluding, ``stop``."""
        counts = self._counts
        parent = self._tree.parent
        node = tip
        while node != stop:
            assert node is not None
            count = counts.get(node, 0) + delta
            if count:
                counts[node] = count
            else:
                del counts[node]
            node = parent(node)

    # ------------------------------------------------------------------
    # Reading (Figure 2 thresholds, exact integers)
    # ------------------------------------------------------------------
    def deepest_above(self, threshold: int) -> tuple[int, BlockId | None] | None:
        """``(depth, tip)`` of the longest log counted more than
        ``threshold`` times, or ``None`` when no log is.

        The deepest such node is a frontier node (it lies on some voted
        tip's root path, and nothing deeper on that path is above the
        threshold), so it is ``tree.longest`` of the frontier — equal
        depths broken by tip id, as everywhere.
        """
        frontier = self._frontier(threshold)
        if not frontier:
            return None
        tip = self._tree.longest(frontier)
        return self._tree.depth(tip), tip

    def grade(self, beta: Fraction = DEFAULT_BETA, m: int | None = None) -> GAOutput:
        """Enumerate every counted log against the β thresholds.

        ``m`` defaults to the number of tallied votes (the GA's
        perceived participation); callers with a fixed denominator
        (e.g. a static quorum over all ``n`` processes) may override it.

        The graded sets are the root paths of the two frontiers: grade 1
        from the ``(1 − β)·m`` frontier, grade 0 from the ``β·m``
        frontier down to where grade 1 begins.
        """
        check_beta(beta)
        if m is None:
            m = len(self._votes)
        if m == 0:
            return GAOutput(grade1=(), grade0=(), m=0)
        threshold1, threshold0 = grade_thresholds(beta, m)
        grade1 = self._root_paths(self._frontier(threshold1), stop={})
        grade0 = self._root_paths(self._frontier(threshold0), stop=grade1)

        depth = self._tree.depth

        def sort_key(tip: BlockId | None) -> tuple[int, str]:
            return (depth(tip), tip if tip is not None else "")

        return GAOutput(
            grade1=tuple(sorted(grade1, key=sort_key)),
            grade0=tuple(sorted(grade0, key=sort_key)),
            m=m,
        )

    def _frontier(self, threshold: int) -> list[BlockId | None]:
        """Per distinct voted tip, the first node on its root path
        counted more than ``threshold`` times (each node once); empty
        when not even the total is."""
        if self._counts.get(GENESIS_TIP, 0) <= threshold:
            return []
        # The virtual root is above the threshold, so every walk ends.
        first = self._first_above
        return list({first(tip, threshold) for tip in set(self._votes.values())})

    def _first_above(self, tip: BlockId | None, threshold: int) -> BlockId | None:
        count = self._counts.get
        parent = self._tree.parent
        node = tip
        for _ in range(_WALK_STEPS):
            if count(node, 0) > threshold:
                return node
            node = parent(node)
        # A stale branch this deep is rare; counts are monotone along
        # the path, so bisect on depth instead of walking it.
        above = self._tree.ancestor_at_depth
        lo, hi = 0, self._tree.depth(node) + 1  # above the threshold at lo, not from hi on
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if count(above(node, mid), 0) > threshold:
                lo = mid
            else:
                hi = mid
        return above(node, lo)

    def _root_paths(
        self, frontier: list[BlockId | None], stop: dict[BlockId | None, None]
    ) -> dict[BlockId | None, None]:
        """Every node on the root paths of ``frontier``, each once, down
        to (excluding) the nodes of ``stop``."""
        parent = self._tree.parent
        found: dict[BlockId | None, None] = {}
        for node in frontier:
            while node not in found and node not in stop:
                found[node] = None
                if node is GENESIS_TIP:
                    break
                node = parent(node)
        return found
