"""Orphan-block buffering for incrementally built local trees.

Processes learn blocks from ``propose`` messages.  Under asynchrony (and
in the gossip runtime) a block can arrive before its parent; a
well-behaved process buffers such orphans and inserts them once the
parent is known, mirroring how production blockchain clients handle
out-of-order block arrival.

The buffer is **bounded per source**: an adversary can multicast blocks
claiming parents that will never be delivered, and an unbounded buffer
would grow by one entry per such block forever.  Callers pass the
*verified sender* of the message that carried the block as ``source``
(signature verification upstream means a Byzantine process can only
speak as itself), and each source may **vouch** for at most
``max_orphans_per_source`` buffered orphans; exceeding the quota drops
that source's own oldest vouch.  A buffered block re-offered by a
second source gains that source's vouch too, and a block is only
evicted when its *last* voucher drops it — so a Byzantine sender
front-running an honest block (offering it first to get it charged to
its own bucket, then flooding) cannot evict it once the honest carrier
arrives.  Chaff from one identity therefore sheds only that identity's
entries, total orphan memory is bounded by ``quota × senders``, and an
honest sender — with at most a handful of blocks in flight — never
hits the quota.  Observer/merge trees whose input is already validated
opt out with ``max_orphans_per_source=None``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.chain.block import Block, BlockId
from repro.chain.shared import ChainView, TreeLike
from repro.chain.tree import MissingParentError

#: Default per-source orphan quota — far above the block or two an
#: honest proposer ever has awaiting a parent, far below what unbounded
#: adversarial chaff would accumulate over a long run.
DEFAULT_ORPHANS_PER_SOURCE = 32


class BlockBuffer:
    """Feeds received blocks into a :class:`BlockTree`, buffering orphans.

    ``offer`` inserts a block if its parent is known, then cascades any
    buffered descendants that become insertable.  Returns the list of
    block ids actually inserted (empty if the block was buffered or
    already known).

    Each ``source`` (the verified sender of the carrying message;
    ``None`` is one shared bucket) may vouch for at most
    ``max_orphans_per_source`` buffered blocks at once (``None`` for
    unbounded); exceeding the quota drops that source's oldest vouch,
    and a block leaves the buffer only when its last voucher is gone.
    Eviction therefore only ever sheds a flooding source's own backlog,
    and a block evicted in error is insertable again on redelivery.

    ``offer_run`` takes one delivery's ``(block, source)`` pairs: a
    shortcut for the case where offering them one by one would buffer
    and vouch for nothing, and otherwise exactly that loop.
    """

    def __init__(
        self,
        tree: TreeLike,
        max_orphans_per_source: int | None = DEFAULT_ORPHANS_PER_SOURCE,
    ) -> None:
        if max_orphans_per_source is not None and max_orphans_per_source <= 0:
            raise ValueError("max_orphans_per_source must be positive (or None for unbounded)")
        self._tree = tree
        self._quota = max_orphans_per_source
        self._orphans: dict[BlockId, Block] = {}
        self._waiting_on: dict[BlockId, list[BlockId]] = defaultdict(list)
        # source -> the orphans it vouches for, oldest vouch first
        # (dict-as-ordered-set), and the reverse map.
        self._by_source: dict[object, dict[BlockId, None]] = {}
        self._sources_of: dict[BlockId, set[object]] = {}

    def __len__(self) -> int:
        return len(self._orphans)

    def offer_run(self, run: Sequence[tuple[Block, object]]) -> None:
        """Offer the ``(block, source)`` pairs of one delivery, in order.

        A :class:`~repro.chain.shared.ChainView` that the run merely
        extends takes it whole (:meth:`~repro.chain.shared.ChainView.
        add_run`: every parent visible, so nothing would be buffered or
        vouched for) — provided no orphan waits here, since a block of
        the run could be the parent its cascade needs.  In every other
        case, and on a private tree, each pair goes through
        :meth:`offer`.
        """
        tree = self._tree
        if not self._orphans and isinstance(tree, ChainView) and tree.add_run(run):
            return
        for block, source in run:
            self.offer(block, source)

    def offer(self, block: Block, source: object = None) -> list[BlockId]:
        """Insert ``block`` (and any unblocked orphans) into the tree."""
        tree = self._tree
        block_id = block.block_id
        size = len(tree)
        try:
            # The tree's own admission check is the only membership
            # probe: one lookup each for the block and its parent.  It
            # is idempotent, so growth tells an insertion from a re-add.
            tree.add(block)
        except MissingParentError:
            if block_id not in self._orphans:
                self._orphans[block_id] = block
                self._waiting_on[block.parent].append(block_id)
                self._sources_of[block_id] = set()
            # Every delivery, first or repeated, adds its source's
            # vouch, so one voucher's eviction pressure cannot drop a
            # block another delivery path still stands behind.
            self._vouch(block_id, source)
            return []
        if block_id in self._orphans:
            # A buffered orphan whose parent reached the tree by another
            # route (a direct add, another buffer over the same view).
            self._unbuffer(block_id)
        if len(tree) == size:
            return []  # already in the tree
        inserted = [block_id]
        if not self._waiting_on:
            return inserted
        # Cascade: children of each newly inserted block may now be insertable.
        frontier = [block_id]
        while frontier:
            parent_id = frontier.pop()
            for child_id in self._waiting_on.pop(parent_id, ()):
                child = self._orphans.pop(child_id)
                self._forget(child_id)
                inserted.append(tree.add(child))
                frontier.append(child_id)
        return inserted

    def _vouch(self, block_id: BlockId, source: object) -> None:
        sources = self._sources_of[block_id]
        if source in sources:
            return
        sources.add(source)
        bucket = self._by_source.setdefault(source, {})
        bucket[block_id] = None
        if self._quota is not None and len(bucket) > self._quota:
            self._drop_oldest_vouch(source, bucket)

    def _forget(self, block_id: BlockId) -> None:
        """Clear every vouch for a block leaving the buffer."""
        for source in self._sources_of.pop(block_id):
            bucket = self._by_source[source]
            del bucket[block_id]
            if not bucket:
                del self._by_source[source]

    def _drop_oldest_vouch(self, source: object, bucket: dict[BlockId, None]) -> None:
        """Shed ``source``'s longest-standing vouch (its quota is full);
        the block itself is evicted only if no other voucher remains."""
        victim_id = next(iter(bucket))
        del bucket[victim_id]
        if not bucket:
            del self._by_source[source]
        sources = self._sources_of[victim_id]
        sources.discard(source)
        if sources:
            return  # another delivery path still vouches for the block
        self._unbuffer(victim_id)

    def _unbuffer(self, block_id: BlockId) -> None:
        """Take an orphan out of the buffer without inserting it."""
        block = self._orphans.pop(block_id)
        self._forget(block_id)
        waiters = self._waiting_on.get(block.parent)
        if waiters is not None:
            try:
                waiters.remove(block_id)
            except ValueError:
                pass
            if not waiters:
                del self._waiting_on[block.parent]

    def orphan_ids(self) -> frozenset[BlockId]:
        """Ids of blocks still waiting for an ancestor."""
        return frozenset(self._orphans)
