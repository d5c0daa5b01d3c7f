"""The :class:`Log` value object (paper Definition 1).

A log is a finite sequence of blocks ``Λ = [b1, ..., bk]`` where each
block references the previous one.  Protocol internals manipulate logs
by tip id inside a :class:`repro.chain.tree.BlockTree`; :class:`Log` is
the materialised form used at API boundaries (delivered logs, examples,
tests) where the sequence itself is what callers want.  Prefix
relations (⪯) are decided on the tree (``BlockTree.is_prefix``,
``compatible``, ``conflict``), not on a materialised log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.chain.block import Block, BlockId


@dataclass(frozen=True)
class Log:
    """An immutable sequence of blocks forming a chain.

    The constructor validates the chain structure: each block's parent
    must be the id of the block before it (the first block must be a
    root).  Use ``Log(())`` for the empty log.
    """

    blocks: tuple["Block", ...] = ()

    def __post_init__(self) -> None:
        previous: BlockId | None = None
        for block in self.blocks:
            if block.parent != previous:
                raise ValueError("blocks do not form a chain")
            previous = block.block_id

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator["Block"]:
        return iter(self.blocks)

    def __getitem__(self, index: int) -> "Block":
        return self.blocks[index]

    @property
    def tip(self) -> "BlockId | None":
        """Id of the last block, or ``None`` for the empty log."""
        return self.blocks[-1].block_id if self.blocks else None

    def transactions(self) -> tuple:
        """All transactions in the log, in order."""
        return tuple(tx for block in self.blocks for tx in block.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tips = ",".join(b.block_id[:6] for b in self.blocks[-3:])
        return f"Log(len={len(self)}, ...{tips})"
