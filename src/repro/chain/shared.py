"""One interned block tree per run or shard, with per-receiver visibility views.

Every receiver in a simulation used to own a private
:class:`~repro.chain.tree.BlockTree`: n copies of the same blocks, the
same depth tables, the same binary-lifting skip pointers.  Memory and
tree maintenance scaled O(n × chain), which priced n ≥ 1000 runs — the
regime where the paper's sleepy model is actually interesting — out of
reach.

This module interns the structure once:

* :class:`SharedChain` owns the **canonical** tree of a run.  Blocks
  are content-addressed (:class:`~repro.chain.block.Block` ids are
  hashes), so each block is inserted — and its skip-pointer row built —
  exactly once, no matter how many receivers learn it.  Every block
  also gets a dense integer **intern index** in insertion order.
* :class:`ChainView` is one receiver's lens: the canonical tree
  filtered by a visible set over intern indices.  It answers the
  :class:`~repro.chain.tree.BlockTree` queries a receiver is asked
  (``add``, membership, ``get``, ``parent``, ``depth``,
  ``ancestor_at_depth``, ``longest``, ``is_prefix``, ``compatible``,
  ``conflict``, ``payload_ids``, ``tips``) with the semantics of a
  private tree holding only the blocks this receiver has accepted
  (``tips`` lists them in canonical intern order) — so protocol state
  machines, :class:`~repro.chain.tally.PrefixTally`,
  :class:`~repro.chain.store.BlockBuffer`, and the finality gadget run
  on a view unchanged, bit for bit.

The visible set is watermark-compressed: under synchrony every
receiver learns blocks in (nearly) intern order, so visibility is "all
indices below a watermark" plus a small overflow set that drains as the
contiguous prefix closes.  A view keeps nothing else (its leaves are
derived on demand), so a caught-up view costs O(1) steady memory
instead of O(chain), and a freshly woken process catches up by
advancing an integer.

Views never share mutable state with each other — only with the
canonical tree, which is append-only — so they are safe to drive from
any single-threaded scheduler.  They do assume one shared address
space: a simulation holds one chain per run and a deployment one per
shard (the nodes one worker process hosts); shards in different
processes cannot intern each other's memory.  A
:class:`~repro.sleepy.process.ProcessFactory` offers views as an
optional capability, not a requirement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence, Set

from repro.chain.block import GENESIS_TIP, Block, BlockId, genesis_block
from repro.chain.transactions import ArrivalLog
from repro.chain.tree import BlockTree, MissingParentError, UnknownBlockError

__all__ = ["ChainView", "DecidedIndex", "SharedChain", "TreeLike"]

#: Segments whose transaction ids a chain keeps (:meth:`SharedChain.payload_ids`).
_SEGMENTS_KEPT = 8


class SharedChain:
    """The canonical interned tree of one run (or deployment shard), plus its view factory.

    The chain always contains the genesis block (index 0): every view
    starts with exactly the genesis visible, mirroring how private
    per-process trees were seeded.  All insertion paths are indexed —
    including blocks added to :attr:`tree` directly (e.g. by the
    simulator's omniscient trace buffer) — via a tree add-listener.
    """

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self._index: dict[BlockId, int] = {}
        self._scratch: dict[str, dict] = {}
        # The last delivered run asked about and where it sits (see
        # :meth:`stretch`); holding the run keeps its identity unique.
        self._run: Sequence[tuple[Block, object]] | None = None
        self._run_stretch: tuple | None = None
        # (tip, above) -> the segment's transaction ids, oldest pair first.
        self._segments: dict[tuple[BlockId | None, BlockId | None], frozenset[str]] = {}
        #: The chain's one transaction pool: each process's mempool is a
        #: cursor over it (:class:`~repro.chain.transactions.Mempool`).
        self.arrival_log = ArrivalLog()
        #: The canonical, append-only tree (also the run's omniscient
        #: trace tree in the simulator).
        self.tree = BlockTree()
        #: The decided path's transaction depths, read by every process
        #: whose delivered log lies on that path.
        self.decided = DecidedIndex(self.tree, segment_ids=self.payload_ids)
        self.tree.add_listener(self._on_add)
        self.tree.add(genesis_block())
        for block in blocks:
            self.tree.add(block)

    def _on_add(self, block: Block) -> None:
        self._index[block.block_id] = len(self._index)

    def __len__(self) -> int:
        return len(self.tree)

    def index(self, block_id: BlockId) -> int:
        """The dense intern index of a canonical block (insertion order)."""
        return self._index[block_id]

    def view(self) -> ChainView:
        """A fresh receiver view with only the genesis block visible."""
        return ChainView(self)

    def stretch(self, run: Sequence[tuple[Block, object]]) -> tuple[int, int] | None:
        """Where a delivered run of ``(block, source)`` pairs sits in the
        intern order: ``(lo, hi)`` when its blocks are exactly the
        interned indices ``lo .. hi − 1``, in order, else ``None``.

        The canonical tree interns every parent before its child, so
        each parent is interned below its child: below ``lo``, or inside
        the stretch ahead of its child in the run.  A backlog spanning
        several views (a waker's) therefore has a stretch too.

        Intern indices never change, so a stretch is a fact about the
        run, not about any view; it is worked out once per run and kept
        for the last run asked about (by identity — every caught-up
        receiver of a delivery presents the same immutable tuple), so n
        receivers share one scan.
        """
        if run is self._run:
            return self._run_stretch
        index_of = self._index.get
        stretch = None
        lo = index_of(run[0][0].block_id) if run else None
        if lo is not None and all(
            index_of(block.block_id) == lo + offset for offset, (block, _source) in enumerate(run)
        ):
            stretch = (lo, lo + len(run))
        self._run, self._run_stretch = run, stretch
        return stretch

    def payload_ids(self, tip: BlockId | None, above: BlockId | None) -> frozenset[str]:
        """The canonical tree's :meth:`~repro.chain.tree.BlockTree.payload_ids`,
        kept for the last few ``(tip, above)`` pairs asked about.

        A pair names one immutable segment, so receivers that decide, or
        propose on, the same segment share one walk of it.
        """
        key = (tip, above)
        segments = self._segments
        ids = segments.get(key)
        if ids is None:
            ids = self.tree.payload_ids(tip, above)
            if len(segments) >= _SEGMENTS_KEPT:
                del segments[next(iter(segments))]
            segments[key] = ids
        return ids

    def scratch(self, key: str) -> dict:
        """A run-shared memo dict for ``key``, created on first request.

        For structures that are *content-derived* from verified message
        fields — identical no matter which receiver computes them (e.g.
        the per-view max-VRF proposal order, or a graded agreement's
        reads keyed by the window tallied) — so n receivers can intern
        one copy instead of each maintaining its own.  Callers must only
        store data every receiver would reconstruct identically; nothing
        receiver-local belongs here.
        """
        return self._scratch.setdefault(key, {})


class DecidedIndex:
    """Transaction id -> depth on one decided path, grown with the path.

    What a process's delivered set held, once per tree instead of once
    per process: a process whose delivered log lies on the index's path
    keeps only its delivered tip's depth, and a transaction is in its
    delivered log iff its depth here is at most that (a transaction the
    path carries twice keeps its shallower depth).  :meth:`advance`
    reads only the blocks a newly decided tip adds, each through
    ``segment_ids`` (the tree's ``payload_ids`` by default; a chain's
    memoised one, which a proposer of the same block has often walked
    already).  A decision that leaves the path gets a :meth:`rebuilt`
    index of its own.
    """

    __slots__ = ("tree", "tip", "depths", "_segment_ids")

    def __init__(
        self,
        tree: BlockTree,
        tip: BlockId | None = GENESIS_TIP,
        segment_ids: Callable[[BlockId, BlockId | None], Set[str]] | None = None,
    ) -> None:
        self.tree = tree
        self._segment_ids = segment_ids if segment_ids is not None else tree.payload_ids
        #: The deepest decided tip: the path is this tip's log.
        self.tip: BlockId | None = GENESIS_TIP
        #: Transaction id -> depth of the shallowest block on the path carrying it.
        self.depths: dict[str, int] = {}
        self._extend(tip)

    def advance(self, tip: BlockId | None) -> bool:
        """Whether ``tip`` is on the path once the path has grown to it:
        ``True`` when it already was or extends the path (which then
        ends at ``tip``), ``False``, with nothing changed, when it
        conflicts with the path."""
        tree = self.tree
        if tree.is_prefix(tip, self.tip):
            return True
        if not tree.is_prefix(self.tip, tip):
            return False
        self._extend(tip)
        return True

    def rebuilt(self, tip: BlockId | None) -> DecidedIndex:
        """An index of the same tree whose path is ``tip``'s log."""
        return DecidedIndex(self.tree, tip, self._segment_ids)

    def _extend(self, tip: BlockId | None) -> None:
        """Grow the path to ``tip``, which extends it."""
        tree = self.tree
        segment = []
        node = tip
        while node != self.tip:
            parent = tree.parent(node)
            segment.append((node, parent))
            node = parent
        depth = tree.depth(node)
        first_seen, segment_ids = self.depths.setdefault, self._segment_ids
        for block_id, parent in reversed(segment):
            depth += 1
            for tx_id in segment_ids(block_id, parent):
                first_seen(tx_id, depth)
        self.tip = tip


class ChainView:
    """One receiver's visibility-filtered lens over a :class:`SharedChain`.

    Drop-in for the :class:`~repro.chain.tree.BlockTree` queries a
    receiver is asked: a block is "in the tree" iff this view has
    accepted it via :meth:`add`, and every query answers as a private
    tree holding those blocks would, listing leaves (:meth:`tips`) in
    canonical intern order.  The whole-tree queries (``children``,
    ``common_prefix``, ``path``, ``log``) are the canonical tree's.
    (Ancestors of a visible block are always visible — :meth:`add`
    requires the parent, like ``BlockTree.add`` — so structural
    queries can delegate to the canonical index once the arguments
    pass the visibility check.)

    :meth:`add_run` accepts a whole delivery's blocks by moving the
    watermark when — and only when — that leaves the view exactly as
    adding them one by one would.
    """

    __slots__ = ("chain", "_tree", "_index", "_stretch", "_floor", "_extra", "_count")

    def __init__(self, chain: SharedChain) -> None:
        #: The chain this view filters (its run-shared structures hang off it).
        self.chain = chain
        self._tree = chain.tree
        self._stretch = chain.stretch
        # The chain's live id -> intern index map, held directly: every
        # membership probe is one dict lookup on it.
        self._index = chain._index
        # Visible iff index < _floor or index in _extra.  Genesis is
        # index 0, visible from birth in every view.
        self._floor = 1
        self._extra: set[int] = set()
        self._count = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, block: Block) -> BlockId:
        """Accept ``block`` into this view (interning it if it is new).

        Same contract as :meth:`repro.chain.tree.BlockTree.add`:
        idempotent, parent must already be visible, returns the block
        id.  The canonical insertion (and its index build) happens at
        most once per run regardless of how many views accept the block.
        """
        block_id = block.block_id
        index_of = self._index.get
        floor = self._floor
        extra = self._extra
        # One intern-index lookup each for the block and its parent.
        index = index_of(block_id)
        if index is not None and (index < floor or index in extra):
            return block_id
        parent = block.parent
        if parent is not None:
            parent_index = index_of(parent)
            if parent_index is None or not (parent_index < floor or parent_index in extra):
                raise MissingParentError(f"parent {parent[:8]} of {block_id[:8]} unknown")
        if index is None:  # first view to learn it: intern once per run
            self._tree.add(block)
            index = self._index[block_id]
        if index == floor:
            floor += 1
            while floor in extra:
                extra.remove(floor)
                floor += 1
            self._floor = floor
        else:
            extra.add(index)
        self._count += 1
        return block_id

    def add_run(self, run: Sequence[tuple[Block, object]]) -> bool:
        """Accept a delivered run of ``(block, source)`` pairs at once,
        if that is what adding its blocks one by one would amount to.

        It is when the run occupies one stretch ``lo .. hi − 1`` of the
        intern order with every parent below its child (:meth:`SharedChain.
        stretch`), this view's watermark has reached the stretch
        (``lo ≤ floor``, so every parent below ``lo`` is visible, and
        every parent inside the stretch is added, one by one, before its
        child) and nothing is visible beyond it (so no block of the
        stretch has a visible child): then the watermark moves to
        ``hi``, swallowing the overflow entries, which all lie inside the
        stretch.  A run wholly below the watermark (a redelivery) is
        accepted as the no-op it is.  Returns ``False`` with nothing
        changed in every other case; the caller then adds block by block.
        """
        stretch = self._stretch(run)
        if stretch is None:
            return False
        lo, hi = stretch
        floor = self._floor
        if floor >= hi:
            return True
        extra = self._extra
        if floor < lo or (extra and max(extra) >= hi):
            return False
        self._count += hi - floor - len(extra)
        extra.clear()
        self._floor = hi
        return True

    def _visible(self, block_id: BlockId) -> bool:
        index = self._index.get(block_id)
        if index is None:
            return False
        return index < self._floor or index in self._extra

    # ------------------------------------------------------------------
    # Queries (what a receiver asks of its tree, visibility-filtered)
    # ------------------------------------------------------------------
    def __contains__(self, tip: BlockId | None) -> bool:
        return tip is GENESIS_TIP or self._visible(tip)

    def __len__(self) -> int:
        return self._count

    def get(self, block_id: BlockId) -> Block:
        """The (visible) block with id ``block_id``."""
        if not self._visible(block_id):
            raise UnknownBlockError(block_id)
        return self._tree.get(block_id)

    def depth(self, tip: BlockId | None) -> int:
        """Length of the log identified by ``tip`` (0 for the empty log)."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return self._tree.depth(tip)

    def parent(self, tip: BlockId) -> BlockId | None:
        """Parent tip of a visible block (``None`` if it is a root)."""
        return self.get(tip).parent

    def tips(self) -> tuple[BlockId, ...]:
        """Visible leaves (no visible children), in canonical intern order.

        Derived on demand by a scan of the chain: no protocol path asks
        for a view's leaves, so the view keeps no leaf set.
        """
        visible, children = self._visible, self._tree.children
        return tuple(
            block_id
            for block_id in self._index
            if visible(block_id) and not any(visible(child) for child in children(block_id))
        )

    def ancestor_at_depth(self, tip: BlockId | None, depth: int) -> BlockId | None:
        """The prefix of ``tip``'s log with length ``depth`` (O(log d))."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return self._tree.ancestor_at_depth(tip, depth)

    def is_prefix(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether log ``a`` is a prefix of log ``b`` (``Λ_a ⪯ Λ_b``)."""
        if a not in self:
            raise UnknownBlockError(a)
        if b not in self:
            raise UnknownBlockError(b)
        return self._tree.is_prefix(a, b)

    def compatible(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether one of the two logs is a prefix of the other."""
        return self.is_prefix(a, b) or self.is_prefix(b, a)

    def conflict(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether the two logs conflict (neither a prefix of the other)."""
        return not self.compatible(a, b)

    def payload_ids(
        self, tip: BlockId | None, above: BlockId | None = GENESIS_TIP
    ) -> frozenset[str]:
        """Transaction ids of ``tip``'s log, or of its segment ``(above, tip]``.

        A path walk, as :meth:`repro.chain.tree.BlockTree.payload_ids`,
        shared with the chain's other views (:meth:`SharedChain.payload_ids`).
        """
        if tip not in self:
            raise UnknownBlockError(tip)
        if above not in self:
            raise UnknownBlockError(above)
        return self.chain.payload_ids(tip, above)

    def longest(self, tips: Iterable[BlockId | None]) -> BlockId | None:
        """The deepest visible tip among ``tips``; ties broken by tip id."""
        best: BlockId | None = GENESIS_TIP
        best_key = (-1, "")
        found = False
        for tip in tips:
            key = (self.depth(tip), tip if tip is not None else "")
            if key > best_key:
                best, best_key = tip, key
            found = True
        if not found:
            raise ValueError("longest() of no tips")
        return best


#: Anything exposing the :class:`~repro.chain.tree.BlockTree` query
#: surface: the canonical tree itself or a per-receiver view.
TreeLike = BlockTree | ChainView
