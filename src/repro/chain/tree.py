"""The block tree: ancestry, prefixes, and vote accumulation support.

Logs (paper Definition 1) form a tree under the prefix relation: a log is
identified by its tip block, ``Λ ⪯ Λ'`` iff the tip of ``Λ`` is an
ancestor of the tip of ``Λ'`` (the empty log, tip ``None``, is a prefix
of everything).  The tree stores no transaction membership: a block
holds its own payload, :meth:`BlockTree.payload_ids` unions a path on
demand, and a process that needs membership on its hot path keeps one
set for its delivered log (README, "The indexed chain core").

Ancestry queries are indexed: :meth:`BlockTree.add` maintains a
binary-lifting skip-pointer table (``up[b][k]`` is the ``2^k``-th
ancestor of ``b``), so :meth:`~BlockTree.ancestor_at_depth`,
:meth:`~BlockTree.is_prefix`, :meth:`~BlockTree.compatible`, and
:meth:`~BlockTree.common_prefix` cost O(log d) on a depth-``d`` chain
instead of the O(d) parent walks they replaced, and the leaf set is
maintained incrementally so :meth:`~BlockTree.tips` stops scanning
every block.  Every query is pinned against naive walk-based reference
implementations by ``tests/chain/test_tree_index.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.chain.block import GENESIS_TIP, Block, BlockId
from repro.chain.log import Log


class UnknownBlockError(KeyError):
    """Raised when a block id is not present in the tree."""


class MissingParentError(ValueError):
    """Raised when adding a block whose parent is not in the tree."""


class BlockTree:
    """A rooted tree of blocks with ancestry queries.

    The (virtual) root is :data:`GENESIS_TIP` (``None``), representing
    the empty log; every block whose ``parent`` is ``None`` is a child of
    the virtual root.  Depth of the empty log is 0 and depth of a block
    is ``1 + depth(parent)`` — i.e. the length of the log it identifies.
    """

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self._blocks: dict[BlockId, Block] = {}
        self._depth: dict[BlockId | None, int] = {GENESIS_TIP: 0}
        self._children: dict[BlockId | None, list[BlockId]] = {GENESIS_TIP: []}
        # Binary-lifting skip pointers: _up[b][k] is the 2^k-th ancestor
        # of b (GENESIS_TIP when the jump lands exactly on the virtual
        # root); entry k exists iff depth(b) >= 2^k, so every stored
        # jump is valid by construction.
        self._up: dict[BlockId, list[BlockId | None]] = {}
        # Insertion-ordered leaf set (dict-as-ordered-set): a block is
        # inserted when added and evicted when it gains its first child,
        # so iteration order matches the old full-scan tips() exactly.
        self._leaves: dict[BlockId, None] = {}
        # Add-listeners (e.g. SharedChain's intern indexer); a tuple so
        # the empty common case costs one truth test per add.
        self._listeners: tuple = ()
        for block in blocks:
            self.add(block)

    def add_listener(self, listener) -> None:
        """Call ``listener(block)`` after every successful :meth:`add`.

        Listeners fire once per *new* block (idempotent re-adds do not
        notify) and must not mutate the tree.  Used by
        :class:`repro.chain.shared.SharedChain` to keep its intern index
        in lock-step with every insertion path, including direct adds.
        """
        self._listeners = (*self._listeners, listener)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, block: Block) -> BlockId:
        """Insert ``block``; the parent must already be present.

        Idempotent: re-adding a known block is a no-op.  Returns the
        block id.  Raises :class:`MissingParentError` if the parent is
        unknown (callers that receive blocks out of order should buffer
        them with :class:`repro.chain.store.BlockBuffer`).
        """
        block_id = block.block_id
        blocks = self._blocks
        if block_id in blocks:
            return block_id
        parent = block.parent
        if parent is not None and parent not in blocks:
            raise MissingParentError(f"parent {parent[:8]} of {block_id[:8]} unknown")
        blocks[block_id] = block
        self._depth[block_id] = self._depth[parent] + 1
        self._children[block_id] = []
        self._children[parent].append(block_id)
        # Skip pointers: up[k] = up[up[k-1]][k-1], stopping once a jump
        # reaches the virtual root (no jump can go past it).
        up: list[BlockId | None] = [parent]
        k = 0
        while up[k] is not None:
            above = self._up[up[k]]
            if len(above) <= k:
                break
            up.append(above[k])
            k += 1
        self._up[block_id] = up
        self._leaves.pop(parent, None)  # parent just stopped being a leaf
        self._leaves[block_id] = None
        if self._listeners:
            for listener in self._listeners:
                listener(block)
        return block_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, tip: BlockId | None) -> bool:
        return tip is GENESIS_TIP or tip in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, block_id: BlockId) -> Block:
        """The block with id ``block_id``."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise UnknownBlockError(block_id) from None

    def depth(self, tip: BlockId | None) -> int:
        """Length of the log identified by ``tip`` (0 for the empty log)."""
        try:
            return self._depth[tip]
        except KeyError:
            raise UnknownBlockError(tip) from None

    def parent(self, tip: BlockId) -> BlockId | None:
        """Parent tip of a block (``None`` if the block is a root)."""
        return self.get(tip).parent

    def children(self, tip: BlockId | None) -> tuple[BlockId, ...]:
        """Ids of the direct children of ``tip``."""
        if tip not in self:
            raise UnknownBlockError(tip)
        return tuple(self._children[tip])

    def tips(self) -> tuple[BlockId, ...]:
        """All leaves of the tree (blocks without children)."""
        return tuple(self._leaves)

    def blocks(self) -> Iterator[Block]:
        """Every block exactly once, parents first (insertion order)."""
        return iter(self._blocks.values())

    def ancestor_at_depth(self, tip: BlockId | None, depth: int) -> BlockId | None:
        """The prefix of ``tip``'s log that has length ``depth`` (O(log d))."""
        current_depth = self.depth(tip)
        if depth < 0 or depth > current_depth:
            raise ValueError(f"no ancestor of {tip!r} at depth {depth}")
        steps = current_depth - depth
        node = tip
        k = 0
        while steps:
            if steps & 1:
                assert node is not None
                node = self._up[node][k]
            steps >>= 1
            k += 1
        return node

    def is_prefix(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether log ``a`` is a prefix of log ``b`` (``Λ_a ⪯ Λ_b``).

        Reflexive: every log is a prefix of itself; the empty log is a
        prefix of every log.
        """
        depth_a = self.depth(a)
        if depth_a > self.depth(b):
            return False
        return self.ancestor_at_depth(b, depth_a) == a

    def compatible(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether one of the two logs is a prefix of the other."""
        return self.is_prefix(a, b) or self.is_prefix(b, a)

    def conflict(self, a: BlockId | None, b: BlockId | None) -> bool:
        """Whether the two logs conflict (neither is a prefix of the other)."""
        return not self.compatible(a, b)

    def common_prefix(self, tips: Iterable[BlockId | None]) -> BlockId | None:
        """Tip of the longest common prefix of the given logs.

        With no tips, the empty log.  Each pairwise step is an O(log d)
        LCA query over the skip-pointer index.
        """
        result: BlockId | None = GENESIS_TIP
        first = True
        for tip in tips:
            if first:
                result = tip
                first = False
                continue
            result = self._lca(result, tip)
        return result

    def _lca(self, a: BlockId | None, b: BlockId | None) -> BlockId | None:
        """Lowest common ancestor of two tips via binary lifting."""
        depth = min(self.depth(a), self.depth(b))
        a = self.ancestor_at_depth(a, depth)
        b = self.ancestor_at_depth(b, depth)
        if a == b:
            return a
        # Equal depth >= 1 and distinct, so both are real blocks with
        # identically sized skip tables; descend the largest jumps that
        # keep them apart.  Differing 2^k ancestors are never the
        # virtual root (a jump of exactly depth lands both on it).
        assert a is not None and b is not None
        for k in range(len(self._up[a]) - 1, -1, -1):
            table_a = self._up[a]
            if k >= len(table_a):  # tables shrink as the nodes move up
                continue
            if table_a[k] != self._up[b][k]:
                a = table_a[k]
                b = self._up[b][k]
                assert a is not None and b is not None
        return self._blocks[a].parent

    def path(self, tip: BlockId | None) -> tuple[BlockId, ...]:
        """Block ids of the log identified by ``tip``, root first."""
        ids: list[BlockId] = []
        node = tip
        while node is not None:
            ids.append(node)
            node = self._blocks[node].parent
        ids.reverse()
        return tuple(ids)

    def log(self, tip: BlockId | None) -> Log:
        """Materialise the log identified by ``tip``."""
        return Log(tuple(self._blocks[bid] for bid in self.path(tip)))

    def payload_ids(
        self, tip: BlockId | None, above: BlockId | None = GENESIS_TIP
    ) -> frozenset[str]:
        """Ids of every transaction in the log identified by ``tip``.

        With ``above`` (a prefix of ``tip``'s log), only the segment
        ``(above, tip]``.  Computed by walking that segment — O(its
        length), nothing is stored per block — so it is for analysis
        and for short segments, never for a whole log on a hot path.
        Raises :class:`ValueError` when ``above`` is not a prefix of
        ``tip``'s log.
        """
        steps = self.depth(tip) - self.depth(above)
        ids: set[str] = set()
        node = tip
        for _ in range(steps):
            block = self._blocks[node]
            ids.update(tx.tx_id for tx in block.payload)
            node = block.parent
        if node != above:  # also every steps < 0
            raise ValueError(f"{above!r} is not a prefix of {tip!r}")
        return frozenset(ids)

    def longest(self, tips: Iterable[BlockId | None]) -> BlockId | None:
        """The deepest tip among ``tips``; ties broken by tip id.

        The deterministic tie-break keeps all well-behaved processes'
        choices identical when the paper leaves the choice open (e.g. the
        longest grade-0 output ``L_v`` in Algorithm 1).
        """
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
