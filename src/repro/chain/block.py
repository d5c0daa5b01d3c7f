"""Blocks and block identifiers (paper Definition 1).

A *block* is a batch of transactions plus a reference to its parent
block.  Logs (Definition 1) are finite sequences of blocks; in this
repository a log is identified by the id of its last block (its *tip*)
inside a :class:`repro.chain.tree.BlockTree`.  The empty log is
identified by :data:`GENESIS_TIP` (``None``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.chain.transactions import Transaction
from repro.crypto.hashing import hash_fields

#: Identifier of a block: the SHA-256 hex digest of its canonical encoding.
BlockId = str

#: Tip of the empty log.  ``None`` is the (virtual) parent of every root
#: block, so every log is an extension of the empty log.
GENESIS_TIP: BlockId | None = None


@dataclass(frozen=True)
class Block:
    """An immutable block.

    Attributes:
        parent: id of the parent block, or ``None`` for a root block
            (a block whose log is ``[block]``).
        proposer: id of the process that created the block.  The genesis
            block uses ``-1`` (no proposer).
        view: the view in which the block was proposed (paper
            Algorithm 1; view 0 for the genesis block).
        payload: the batch of transactions carried by the block.
        salt: disambiguator for otherwise-identical blocks.  Well-behaved
            proposers always use 0; equivocating adversaries use it to
            mint conflicting sibling blocks with identical payloads.
        block_id: the unique identifier, derived from all other fields.
            Computed automatically; never pass it explicitly.

    Pickles as its constructor arguments without ``block_id``, and
    refuses a pickle that writes state onto it, so a decoded block's id
    is recomputed from the content that arrived (README, "Identifiers
    and where they are computed").
    """

    parent: BlockId | None
    proposer: int
    view: int
    payload: tuple[Transaction, ...] = ()
    salt: int = 0
    block_id: BlockId = field(default="", compare=False)

    def __post_init__(self) -> None:
        computed = hash_fields(
            "block",
            self.parent,
            self.proposer,
            self.view,
            self.salt,
            tuple(tx.tx_id for tx in self.payload),
        )
        if self.block_id and self.block_id != computed:
            raise ValueError("block_id does not match block contents")
        object.__setattr__(self, "block_id", computed)

    def __reduce__(self):
        return (type(self), (self.parent, self.proposer, self.view, self.payload, self.salt))

    def __setstate__(self, state) -> None:
        # Its own pickle carries no state: a BUILD is a peer writing a
        # block id or a field onto a constructed block.
        raise pickle.UnpicklingError("a Block takes no pickled state")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = self.parent[:8] if self.parent else "root"
        return (
            f"Block(id={self.block_id[:8]}, parent={parent}, "
            f"proposer={self.proposer}, view={self.view}, txs={len(self.payload)})"
        )


def genesis_block() -> Block:
    """The canonical genesis block ``b0`` proposed in view 0.

    Every run of every protocol in this repository shares this block:
    paper Algorithm 1 has all view-0 processes propose ``Λ := [b0]``.
    """
    return Block(parent=None, proposer=-1, view=0, payload=())
