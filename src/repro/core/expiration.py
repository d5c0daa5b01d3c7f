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

**Representation.**  The store is *round-bucketed and incremental*:
votes live in per-round tables
(``round -> sender -> tip | EQUIVOCATED_VOTE``, the same shape a
:meth:`~repro.sleepy.messages.VerifiedBatch.vote_table` delivers, so a
synchronous round's votes merge as one table adoption instead of
per-vote calls), :meth:`prune` drops whole buckets in O(dropped), and
the per-window latest-vote aggregate is maintained incrementally: a GA
query for ``[g − η, g]`` *rolls* the previous query's window forward by
merging only the newly visible buckets instead of rescanning every
sender's history.  Every query path is pinned bit-identical to the
brute-force recount by ``tests/core/test_incremental_votes.py`` and the
seeded golden traces.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.chain.block import BlockId
from repro.sleepy.messages import EQUIVOCATED_VOTE


class LatestVoteStore:
    """Per-sender vote history with incremental expiration-window queries."""

    _EQUIVOCATED = EQUIVOCATED_VOTE
    _MISSING = object()

    def __init__(self) -> None:
        # Mutation counter (see :attr:`version`).
        self._version = 0
        # round -> sender -> tip of the unique vote, or EQUIVOCATED_VOTE.
        self._by_round: dict[int, dict[int, object]] = {}
        # round -> senders equivocating in that round (only rounds that
        # have any; lets prune update equivocator counts in O(evidence)).
        self._round_eq: dict[int, set[int]] = {}
        # sender -> number of unpruned rounds it equivocated in.
        self._eq_rounds: dict[int, int] = {}
        self._size = 0
        # The incremental window aggregate: the (lo, hi) of the last
        # query and, per sender, its latest in-window (round, value).
        self._win: tuple[int, int] | None = None
        self._win_latest: dict[int, tuple[int, object]] = {}
        # Smallest round referenced by the aggregate — lets prune skip
        # the aggregate entirely when it only drops older rounds (the
        # steady-state case: the protocol prunes exactly up to the
        # window's lower edge).
        self._win_min = 0

    def __len__(self) -> int:
        return self._size

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

        ``table`` maps ``round -> sender -> tip | EQUIVOCATED_VOTE``
        with within-batch equivocations already collapsed.  When this
        store has no prior entries for a round — the steady synchronous
        case, where each round's votes arrive exactly once — the whole
        per-round table is adopted as one dict copy; otherwise entries
        merge one by one with the usual equivocation transitions.
        """
        self._version += 1
        by_round = self._by_round
        for round_number, delta in table.items():
            bucket = by_round.get(round_number)
            if bucket is None:
                adopted = dict(delta)
                by_round[round_number] = adopted
                self._size += len(adopted)
                for sender, value in adopted.items():
                    if value is EQUIVOCATED_VOTE:
                        self._mark_equivocation(sender, round_number)
            else:
                for sender, value in delta.items():
                    existing = bucket.get(sender, self._MISSING)
                    if existing is self._MISSING:
                        bucket[sender] = value
                        self._size += 1
                        if value is EQUIVOCATED_VOTE:
                            self._mark_equivocation(sender, round_number)
                    elif existing is EQUIVOCATED_VOTE or existing == value:
                        continue
                    else:
                        # Either the delta proves a fresh conflict, or it
                        # is itself an equivocation marker: void the slot.
                        bucket[sender] = EQUIVOCATED_VOTE
                        self._mark_equivocation(sender, round_number)
            win = self._win
            if win is not None and win[0] <= round_number <= win[1]:
                self._win = None
                self._win_latest = {}

    def _mark_equivocation(self, sender: int, round_number: int) -> None:
        eq = self._round_eq.get(round_number)
        if eq is None:
            eq = self._round_eq[round_number] = set()
        if sender not in eq:
            eq.add(sender)
            self._eq_rounds[sender] = self._eq_rounds.get(sender, 0) + 1

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def latest(self, window_lo: int, window_hi: int) -> dict[int, BlockId | None]:
        """Latest unexpired vote per sender over rounds ``[window_lo, window_hi]``.

        Senders whose latest in-window vote is an equivocation are
        excluded entirely.  Consecutive queries with advancing windows
        (the protocol's access pattern: ``[g − η, g]`` then
        ``[g + 1 − η, g + 1]``) are served incrementally by rolling the
        aggregate forward; arbitrary windows fall back to a rebuild
        over the buckets in range.
        """
        if window_lo > window_hi:
            return {}
        if self._win != (window_lo, window_hi):
            self._advance_window(window_lo, window_hi)
        return {
            sender: value  # type: ignore[misc]
            for sender, (_, value) in self._win_latest.items()
            if value is not EQUIVOCATED_VOTE
        }

    def _advance_window(self, lo: int, hi: int) -> None:
        win = self._win
        if win is not None and win[0] <= lo and win[1] <= hi:
            lo0, hi0 = win
            aggregate = self._win_latest
            # Merge the newly visible buckets (ascending: latest wins).
            fresh = sorted(r for r in self._by_round if hi0 < r <= hi)
            for r in fresh:
                for sender, value in self._by_round[r].items():
                    aggregate[sender] = (r, value)
            # Re-derive senders whose cached round fell off the left
            # edge, and track the new minimum as we go.
            new_min = hi
            if lo > lo0 or self._win_min < lo:
                for sender in [s for s, (r, _) in aggregate.items() if r < lo]:
                    refreshed = self._scan_latest(sender, lo, hi)
                    if refreshed is None:
                        del aggregate[sender]
                    else:
                        aggregate[sender] = refreshed
            for _, (r, _value) in aggregate.items():
                if r < new_min:
                    new_min = r
            self._win_min = new_min
        else:
            aggregate = {}
            for r in sorted(r for r in self._by_round if lo <= r <= hi):
                for sender, value in self._by_round[r].items():
                    aggregate[sender] = (r, value)
            self._win_latest = aggregate
            self._win_min = min((r for r, _ in aggregate.values()), default=hi)
        self._win = (lo, hi)

    def _scan_latest(self, sender: int, lo: int, hi: int) -> tuple[int, object] | None:
        best = -1
        value: object = None
        for r, bucket in self._by_round.items():
            if lo <= r <= hi and r > best and sender in bucket:
                best = r
                value = bucket[sender]
        if best < 0:
            return None
        return (best, value)

    # ------------------------------------------------------------------
    # Introspection and accountability
    # ------------------------------------------------------------------
    def equivocators(self) -> frozenset[int]:
        """Senders caught equivocating in any (unpruned) round.

        Equivocation is provable misbehaviour — two validly signed,
        conflicting votes for the same round — so this set is the
        accountability output a deployment would feed into slashing.
        """
        return frozenset(self._eq_rounds)

    # ------------------------------------------------------------------
    # Expiration
    # ------------------------------------------------------------------
    def prune(self, before_round: int) -> int:
        """Drop all votes from rounds ``< before_round``; returns how many.

        Long-running processes call this with ``r − 1 − η`` so memory
        stays proportional to the expiration window.  Round-bucketed
        storage makes this O(dropped votes): whole buckets are popped,
        and the window aggregate is only touched when the cut reaches
        into rounds it still references.
        """
        dropped = 0
        stale = [r for r in self._by_round if r < before_round]
        if stale:
            self._version += 1
        for r in stale:
            bucket = self._by_round.pop(r)
            dropped += len(bucket)
            for sender in self._round_eq.pop(r, ()):
                remaining = self._eq_rounds[sender] - 1
                if remaining:
                    self._eq_rounds[sender] = remaining
                else:
                    del self._eq_rounds[sender]
        self._size -= dropped
        win = self._win
        if win is not None and before_round > self._win_min:
            if before_round > win[0]:
                # The cut reaches into the cached window: evict stale
                # aggregate entries so repeat queries of this same
                # window reflect the pruned state exactly.
                aggregate = self._win_latest
                for sender in [s for s, (r, _) in aggregate.items() if r < before_round]:
                    del aggregate[sender]
            self._win_min = min(
                (r for r, _ in self._win_latest.values()), default=win[1]
            )
        return dropped
