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

* votes are held as a :class:`VoteSet` — ``tip -> bitmask of senders``
  — so the voters who moved from one tip to another are the
  intersection of two masks and their number a popcount;
* :meth:`~PrefixTally.set_votes` — the call every GA instance makes —
  derives each *distinct* ``(old tip → new tip)`` transition from the
  handful of tip pairs and applies it once, weighted by its voter
  count: one ``±weight`` walk of the path between the two tips.  In the
  protocol's steady state all but a few senders move from the same old
  tip to the same new tip, so a GA pays for one or two transitions and
  never looks at a single voter;
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

from collections.abc import Container, Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from repro.chain.block import GENESIS_TIP, BlockId
from repro.chain.shared import TreeLike
from repro.chain.tree import UnknownBlockError

#: The paper's default failure ratio (1/3-resilient MMR).
DEFAULT_BETA = Fraction(1, 3)

#: What a (sender, round) slot voided by two different signed votes
#: reads as in a :class:`VoteSet`.
EQUIVOCATED_VOTE = object()


#: The protocols' range of failure ratios is ``(0, 1/2]``.
_BETA_ABOVE = Fraction(0)
_BETA_AT_MOST = Fraction(1, 2)

#: Parent steps a frontier walk takes before it bisects on depth.
_WALK_STEPS = 8


def _union(masks: Iterable[int]) -> int:
    return reduce(or_, masks, 0)


def mask_pids(mask: int) -> Iterator[int]:
    """The bit positions set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VoteSet(Mapping):
    """The votes of one round, or of one window: ``tip -> senders``.

    ``tips`` maps each voted tip to the bitmask of the senders voting
    it (bit ``pid`` set = ``pid`` votes that tip; a sender is in at most
    one mask), and ``senders`` is the mask of everyone with an entry —
    so ``senders & ~OR(tips)`` are the senders whose slot two different
    signed votes voided (:attr:`voided`), and equivocation needs no
    table of its own.  Honest voters of a round vote one or two tips, so
    a round is one or two machine integers whatever ``n`` is, and every
    question the vote store and the tally ask of it — who is new, who
    moved from which tip to which, how many — is mask algebra plus a
    popcount.

    An immutable value: nothing mutates ``tips`` after construction, so
    one instance is shared by reference between a delivered batch and
    every store that adopts it.  It still *reads* as
    ``Mapping[sender, tip | EQUIVOCATED_VOTE]`` (ascending sender
    order) and compares equal to the dict it was built from; those
    per-sender reads are for tests and analysis, not for a round's hot
    path.  The one assumption it adds: a sender is a bit position, so
    sender ids are small non-negative integers — the stores only ever
    see verified pids ``< n``.
    """

    __slots__ = ("tips", "senders")

    def __init__(self, tips: Mapping[BlockId | None, int], senders: int | None = None) -> None:
        self.tips = tips
        self.senders = _union(tips.values()) if senders is None else senders

    @classmethod
    def of(cls, votes: Mapping[int, object]) -> VoteSet:
        """Normalise ``{sender: tip | EQUIVOCATED_VOTE}`` (a
        :class:`VoteSet` passes through).  A negative sender id raises
        :class:`ValueError`."""
        if type(votes) is cls:
            return votes
        tips: dict[object, int] = {}
        senders = 0
        for sender, tip in votes.items():
            bit = 1 << sender
            senders |= bit
            if tip is not EQUIVOCATED_VOTE:
                tips[tip] = tips.get(tip, 0) | bit
        return cls(tips, senders)

    @property
    def voided(self) -> int:
        """Mask of the senders whose entry is an equivocation."""
        return self.senders & ~_union(self.tips.values())

    def merge(self, other: VoteSet) -> VoteSet:
        """Both tables of one round: a sender they disagree on — two
        different tips, or voided in either — is voided."""
        mine, theirs = self.tips, other.tips
        agree = 0
        for tip, mask in theirs.items():
            agree |= mask & mine.get(tip, 0)
        keep = ~(self.senders & other.senders & ~agree)
        tips: dict[BlockId | None, int] = {}
        for side in (mine, theirs):
            for tip, mask in side.items():
                mask &= keep
                if mask:
                    tips[tip] = tips.get(tip, 0) | mask
        return VoteSet(tips, self.senders | other.senders)

    def drop(self, senders: int) -> VoteSet:
        """This set without the entries of ``senders`` (a mask)."""
        keep = ~senders
        tips = {tip: mask & keep for tip, mask in self.tips.items() if mask & keep}
        return VoteSet(tips, self.senders & keep)

    def known_to(self, tree: Container[BlockId | None]) -> VoteSet:
        """This set without the votes for tips ``tree`` does not contain
        — membership is probed once per distinct tip."""
        unknown = [mask for tip, mask in self.tips.items() if tip not in tree]
        return self.drop(_union(unknown)) if unknown else self

    # Mapping[sender, tip | EQUIVOCATED_VOTE]
    def __getitem__(self, sender: int) -> object:
        if sender < 0 or not self.senders >> sender & 1:
            raise KeyError(sender)
        for tip, mask in self.tips.items():
            if mask >> sender & 1:
                return tip
        return EQUIVOCATED_VOTE

    def __iter__(self) -> Iterator[int]:
        return mask_pids(self.senders)

    def __len__(self) -> int:
        return self.senders.bit_count()

    def __repr__(self) -> str:
        return f"VoteSet({dict(self)!r})"


_NO_VOTES = VoteSet({})


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

    Holds one vote per sender as a :class:`VoteSet` (the caller
    resolves equivocations and window membership — e.g. via
    :class:`~repro.core.expiration.LatestVoteStore`); every vote's tip
    must be present in the tree.  Counts stay exact under any sequence
    of :meth:`set_votes` calls and under tree growth.

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
        self._votes = _NO_VOTES
        # node -> number of tallied votes for tips in its subtree; only
        # nodes with a non-zero count are present (GENESIS_TIP carries
        # the total while any vote is tallied).
        self._counts: dict[BlockId | None, int] = {}
        if votes:
            self.set_votes(votes)

    def __len__(self) -> int:
        return len(self._votes)

    @property
    def votes(self) -> VoteSet:
        """The tallied vote per sender."""
        return self._votes

    def count(self, tip: BlockId | None) -> int:
        """Votes for logs extending ``tip`` (the paper's prefix count)."""
        if tip not in self._tree:
            raise UnknownBlockError(tip)
        return self._counts.get(tip, 0)

    # ------------------------------------------------------------------
    # Vote churn
    # ------------------------------------------------------------------
    def set_votes(self, votes: Mapping[int, BlockId | None]) -> None:
        """Make the tallied set equal ``votes`` (a :class:`VoteSet`, or
        a ``{sender: tip}`` mapping normalised to one), by weighted diff.

        The voters who move from tip ``a`` to tip ``b`` are
        ``old[a] & new[b]``; who leaves, ``old[a] & ~new.senders``; who
        enters, ``new[b] & ~old.senders``.  Each *distinct* transition
        is applied once with its popcount as the weight
        (:meth:`_adjust_path`).  The protocol's steady state moves
        almost every sender from the same old tip to the same new tip,
        so a GA costs one or two transitions of one block each, whatever
        the number of voters; building from empty costs O(distinct tips
        · depth).

        Every new tip is validated before any count moves: a call that
        raises :class:`UnknownBlockError` leaves the tally untouched.
        """
        new = VoteSet.of(votes)
        old = self._votes
        held, cast = old.tips, new.tips
        if cast == held and new.senders == old.senders:
            return  # nobody moved: every other round of a steady run
        tree = self._tree
        voting = 0
        for tip, mask in cast.items():
            if tip not in held and tip not in tree:
                raise UnknownBlockError(tip)
            voting |= mask
        if voting != new.senders:  # an unresolved equivocation is a vote for no log
            raise UnknownBlockError(EQUIVOCATED_VOTE)

        # No count can dip below zero whatever the order: the decrements
        # a node receives are distinct tallied voters leaving its subtree.
        move = self._adjust_path
        for tip, mask in held.items():
            moved = mask & ~cast.get(tip, 0)
            if not moved:
                continue
            left = moved & ~voting
            if left:
                move(tip, GENESIS_TIP, left.bit_count())
                moved ^= left
            for target, joined in cast.items():
                if not moved:
                    break
                hit = moved & joined
                if hit:
                    move(tip, target, hit.bit_count())
                    moved ^= hit
        outside = ~old.senders
        for tip, mask in cast.items():
            entered = mask & outside
            if entered:
                move(GENESIS_TIP, tip, entered.bit_count())
        total = voting.bit_count() - old.senders.bit_count()
        if total:
            counts = self._counts
            total += counts.pop(GENESIS_TIP, 0)
            if total:
                counts[GENESIS_TIP] = total
        self._votes = new

    def _adjust_path(self, old: BlockId | None, new: BlockId | None, weight: int) -> None:
        """Move ``weight`` votes from ``old``'s log to ``new``'s.

        ``−weight`` on every node from ``old`` up to where the two root
        paths meet, ``+weight`` on every node from ``new`` up to there;
        the node where they meet keeps its count.  The empty log is a
        tip like any other — entering the tally is a move from it,
        leaving a move to it (its own count, the total, is the
        caller's).  The two legs are found by walking them: every node
        on them is touched anyway, so no ancestor query is spent.
        """
        tree = self._tree
        parent = tree.parent
        legs: list[tuple[BlockId | None, int]] = []
        lead = tree.depth(new) - tree.depth(old)
        while lead > 0:
            legs.append((new, weight))
            new = parent(new)
            lead -= 1
        while lead < 0:
            legs.append((old, -weight))
            old = parent(old)
            lead += 1
        while new != old:
            legs.append((new, weight))
            legs.append((old, -weight))
            new = parent(new)
            old = parent(old)
        counts = self._counts
        for node, delta in legs:
            count = counts.get(node, 0) + delta
            if count:
                counts[node] = count
            else:
                del counts[node]

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
            m = len(self)
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
        return list({first(tip, threshold) for tip in self._votes.tips})

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
