"""One interned block tree per run, with per-receiver visibility views.

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
  filtered by a visible set over intern indices.  It exposes the full
  :class:`~repro.chain.tree.BlockTree` query surface (``add``,
  membership, ``depth``, ``longest``, ``is_prefix``, ``conflict``,
  ``common_prefix``, ``payload_ids``, ``tips``, ``path``, ``log``, …)
  with *exactly* the semantics of a private tree holding only the
  blocks this receiver has accepted — so protocol state machines,
  :class:`~repro.chain.tally.PrefixTally`,
  :class:`~repro.chain.store.BlockBuffer`, and the finality gadget run
  on a view unchanged, bit for bit.

The visible set is watermark-compressed: under synchrony every
receiver learns blocks in (nearly) intern order, so visibility is "all
indices below a watermark" plus a small overflow set that drains as the
contiguous prefix closes.  A caught-up view therefore costs O(1) steady
memory instead of O(chain), and a freshly woken process catches up by
advancing an integer.

Views never share mutable state with each other — only with the
canonical tree, which is append-only — so they are safe to drive from
any single-threaded scheduler.  They do assume one shared address
space: the asyncio deployment backend keeps per-process trees (real
nodes cannot intern each other's memory), which is why
:class:`~repro.sleepy.process.ProcessFactory` treats the shared chain
as an optional capability rather than a requirement.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.chain.block import GENESIS_TIP, Block, BlockId, genesis_block
from repro.chain.log import Log
from repro.chain.tree import BlockTree, MissingParentError, UnknownBlockError

#: Cached id of the canonical genesis block (hashing it once, not per view).
_GENESIS_ID = genesis_block().block_id

__all__ = ["ChainView", "SharedChain", "TreeLike"]


class SharedChain:
    """The canonical interned tree of one run, plus its view factory.

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
        #: The canonical, append-only tree (also the run's omniscient
        #: trace tree in the simulator).
        self.tree = BlockTree()
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

    def stretch(
        self, run: Sequence[tuple[Block, object]]
    ) -> tuple[int, int, tuple[BlockId, ...], dict[BlockId, None]] | None:
        """Where a delivered run of ``(block, source)`` pairs sits in the
        intern order: ``(lo, hi, parents, leaves)`` when its blocks are
        exactly the interned indices ``lo .. hi − 1``, in order, and
        every parent is interned below ``lo`` — ``parents`` the distinct
        parents, ``leaves`` the blocks as an ordered leaf set — else
        ``None``.

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
        if lo is not None:
            parents: dict[BlockId, None] = {}
            leaves: dict[BlockId, None] = {}
            for offset, (block, _source) in enumerate(run):
                if index_of(block.block_id) != lo + offset:
                    break
                parent = block.parent
                if parent is not None:
                    if index_of(parent, lo) >= lo:  # not interned, or not below
                        break
                    parents[parent] = None
                leaves[block.block_id] = None
            else:
                stretch = (lo, lo + len(run), tuple(parents), leaves)
        self._run, self._run_stretch = run, stretch
        return stretch

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


class ChainView:
    """One receiver's visibility-filtered lens over a :class:`SharedChain`.

    Drop-in for the :class:`~repro.chain.tree.BlockTree` query surface:
    a block is "in the tree" iff this view has accepted it via
    :meth:`add`, and every query answers exactly as a private tree
    holding those blocks would.  (Ancestors of a visible block are
    always visible — :meth:`add` requires the parent, like
    ``BlockTree.add`` — so structural queries can delegate to the
    canonical index once the arguments pass the visibility check.)

    :meth:`add_run` accepts a whole delivery's blocks by moving the
    watermark when — and only when — that leaves the view exactly as
    adding them one by one would.
    """

    __slots__ = ("chain", "_tree", "_index", "_stretch", "_floor", "_extra", "_count", "_leaves")

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
        # Insertion-ordered visible-leaf set, mirroring BlockTree._leaves.
        self._leaves: dict[BlockId, None] = {_GENESIS_ID: None}

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
        if parent is not None:
            self._leaves.pop(parent, None)
        self._leaves[block_id] = None
        return block_id

    def add_run(self, run: Sequence[tuple[Block, object]]) -> bool:
        """Accept a delivered run of ``(block, source)`` pairs at once,
        if that is what adding its blocks one by one would amount to.

        It is when the run occupies one stretch ``lo .. hi − 1`` of the
        intern order with every parent below it (:meth:`SharedChain.
        stretch`), this view's watermark has reached the stretch
        (``lo ≤ floor``, so every parent is visible) and nothing is
        visible beyond it (so no block of the stretch has a visible
        child): then the watermark moves to ``hi`` — swallowing the
        overflow entries, which all lie inside the stretch — the parents
        stop being leaves and the blocks join the leaf set in run order,
        the ones already visible keeping their place, as :meth:`add`
        would leave them.  A run wholly below the watermark (a
        redelivery) is accepted as the no-op it is.  Returns ``False``
        with nothing changed in every other case; the caller then adds
        block by block.
        """
        stretch = self._stretch(run)
        if stretch is None:
            return False
        lo, hi, parents, leaves = stretch
        floor = self._floor
        if floor >= hi:
            return True
        extra = self._extra
        if floor < lo or (extra and max(extra) >= hi):
            return False
        self._count += hi - floor - len(extra)
        extra.clear()
        self._floor = hi
        own_leaves = self._leaves
        for parent in parents:
            own_leaves.pop(parent, None)
        own_leaves.update(leaves)
        return True

    def _visible(self, block_id: BlockId) -> bool:
        index = self._index.get(block_id)
        if index is None:
            return False
        return index < self._floor or index in self._extra

    # ------------------------------------------------------------------
    # Queries (the BlockTree surface, visibility-filtered)
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

    def children(self, tip: BlockId | None) -> tuple[BlockId, ...]:
        """Visible direct children of ``tip`` (canonical intern order)."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return tuple(c for c in self._tree.children(tip) if self._visible(c))

    def tips(self) -> tuple[BlockId, ...]:
        """Visible leaves (no visible children), in acceptance order."""
        return tuple(self._leaves)

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

    def common_prefix(self, tips: Iterable[BlockId | None]) -> BlockId | None:
        """Tip of the longest common prefix of the given visible logs."""
        checked = []
        for tip in tips:
            if tip not in self:
                raise UnknownBlockError(tip)
            checked.append(tip)
        return self._tree.common_prefix(checked)

    def path(self, tip: BlockId | None) -> tuple[BlockId, ...]:
        """Block ids of the log identified by ``tip``, root first."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return self._tree.path(tip)

    def log(self, tip: BlockId | None) -> Log:
        """Materialise the log identified by ``tip``."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return self._tree.log(tip)

    def payload_ids(
        self, tip: BlockId | None, above: BlockId | None = GENESIS_TIP
    ) -> frozenset[str]:
        """Transaction ids of ``tip``'s log, or of its segment ``(above, tip]``.

        A path walk, as :meth:`repro.chain.tree.BlockTree.payload_ids`.
        """
        if tip not in self:
            raise UnknownBlockError(tip)
        if above not in self:
            raise UnknownBlockError(above)
        return self._tree.payload_ids(tip, above)

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
