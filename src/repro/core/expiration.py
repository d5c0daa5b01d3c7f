"""Latest-unexpired-message tracking — the paper's expiration mechanism.

The paper's core idea (§2.1 "Message structure", §3.3): equip every vote
with an expiration period of η rounds and have the protocol's behaviour
at round ``r`` depend only on the *latest* unexpired vote of each
process — the latest among those sent in rounds ``[r − 1 − η, r − 1]``
(equivalently: a GA instance started in round ``g`` tallies the latest
votes from rounds ``[g − η, g]``).

:class:`LatestVoteStore` implements exactly this bookkeeping:

* one logical vote per (sender, round); a sender with two *different*
  votes in the same round is an equivocator for that round;
* :meth:`latest` returns, per sender, the vote from their most recent
  round inside the window — and **discards** senders whose latest
  in-window round is equivocating (the paper discards equivocating
  latest messages; we do not fall back to older rounds, so an
  equivocator contributes nothing — the conservative reading of
  Figures 2/3's "two different vote messages from the same process are
  ignored");
* votes tagged with rounds above the window (a Byzantine sender may
  post-date its tags) are simply not visible until the window reaches
  them, so post-dating grants no extra power.

With window width 0 (``lo == hi == g``) the store reproduces the
original protocol's behaviour — η = 0 *is* the unmodified MMR vote
rule, which the equivalence tests in ``tests/integration`` exploit.

**Representation.**  Votes live in one :class:`~repro.chain.tally.
VoteSet` per round (``tip -> bitmask of senders``, the same object a
:meth:`~repro.sleepy.messages.VerifiedBatch.vote_table` delivers): a
synchronous round's votes are adopted *by reference* — every receiver
of a shared delivery holds the one instance — and a round delivered in
pieces merges with mask algebra.  :meth:`LatestVoteStore.latest` is a
newest-first fold over the at most η + 1 buckets inside the window:
a bucket contributes the senders no newer bucket has an entry for
(``mask & ~seen``), and then marks *all* its senders seen — so the
latest round wins and an equivocating latest round contributes nothing
without falling back, in that one line — and stops as soon as it has
seen every sender the store holds an entry for (under full
participation, after the newest bucket).  The fold costs the distinct
tips voted in the window, not the number of voters, so nothing about a
window is cached: there is no aggregate to roll, invalidate or prune.
Every query path is pinned bit-identical to the brute-force recount by
``tests/core/test_incremental_votes.py`` and the seeded golden traces.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.chain.block import BlockId
from repro.chain.tally import VoteSet, mask_pids


class LatestVoteStore:
    """Per-round vote sets with expiration-window queries."""

    def __init__(self) -> None:
        # Mutation counter (see :attr:`version`).
        self._version = 0
        self._by_round: dict[int, VoteSet] = {}
        # Everyone with an entry in some held round: once a window fold
        # has seen them all, no older bucket can add anything.
        self._senders = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_round.values())

    @property
    def version(self) -> int:
        """Monotone counter bumped by every potentially mutating call.

        Lets long-lived consumers (e.g. a :class:`~repro.chain.tally.
        PrefixTally` fed from this store's window queries) skip
        re-deriving their state when nothing was recorded or pruned
        since they last synced.  Conservative: a call that turns out to
        be a no-op (a duplicate redelivery) may still bump it — stale
        versions only ever cause a redundant diff, never a stale read.
        """
        return self._version

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, sender: int, round_number: int, tip: BlockId | None) -> None:
        """Record one vote.  A second, different tip marks an equivocation."""
        self.record_table({round_number: {sender: tip}})

    def record_table(self, table: Mapping[int, Mapping[int, object]]) -> None:
        """Merge a round-resolved vote table (see ``VerifiedBatch.vote_table``).

        ``table`` maps ``round -> VoteSet`` (a plain ``{sender: tip |
        EQUIVOCATED_VOTE}`` mapping is normalised to one) with
        within-batch equivocations already collapsed.  When this store
        holds nothing for a round — the steady synchronous case, where
        each round's votes arrive exactly once — the round's set is
        adopted by reference; otherwise the two merge, a sender they
        disagree on voided.
        """
        self._version += 1
        by_round = self._by_round
        for round_number, votes in table.items():
            votes = VoteSet.of(votes)
            held = by_round.get(round_number)
            by_round[round_number] = votes if held is None else held.merge(votes)
            self._senders |= votes.senders

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def latest(self, window_lo: int, window_hi: int) -> VoteSet:
        """Latest unexpired vote per sender over rounds ``[window_lo, window_hi]``.

        Senders whose latest in-window vote is an equivocation are
        excluded entirely.  A newest-first fold over the buckets in
        range; the result reads as ``{sender: tip}``.
        """
        by_round = self._by_round
        everyone = self._senders
        tips: dict[BlockId | None, int] = {}
        seen = voting = 0
        for r in sorted([r for r in by_round if window_lo <= r <= window_hi], reverse=True):
            bucket = by_round[r]
            unseen = ~seen
            for tip, mask in bucket.tips.items():
                fresh = mask & unseen
                if fresh:
                    tips[tip] = tips.get(tip, 0) | fresh
                    voting |= fresh
            seen |= bucket.senders
            if seen == everyone:
                break
        return VoteSet(tips, voting)

    # ------------------------------------------------------------------
    # Introspection and accountability
    # ------------------------------------------------------------------
    def equivocators(self) -> frozenset[int]:
        """Senders caught equivocating in any (unpruned) round.

        Equivocation is provable misbehaviour — two validly signed,
        conflicting votes for the same round — so this set is the
        accountability output a deployment would feed into slashing.
        """
        caught = 0
        for bucket in self._by_round.values():
            caught |= bucket.voided
        return frozenset(mask_pids(caught))

    # ------------------------------------------------------------------
    # Expiration
    # ------------------------------------------------------------------
    def prune(self, before_round: int) -> int:
        """Drop all votes from rounds ``< before_round``; returns how many.

        Long-running processes call this with ``r − 1 − η`` so memory
        stays proportional to the expiration window: whole buckets are
        popped, O(rounds dropped).
        """
        by_round = self._by_round
        stale = [r for r in by_round if r < before_round]
        if not stale:
            return 0
        self._version += 1
        dropped = sum(len(by_round.pop(r)) for r in stale)
        self._senders = 0
        for bucket in by_round.values():
            self._senders |= bucket.senders
        return dropped
