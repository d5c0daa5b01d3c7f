"""Blocks, logs, and the block tree (paper Definition 1).

This package implements the chain substrate that every protocol in the
repository builds on:

* :mod:`repro.chain.block` — immutable blocks and block identifiers.
* :mod:`repro.chain.tree` — the block tree, prefix/ancestor queries, and
  log materialisation.
* :mod:`repro.chain.log` — the :class:`Log` value object (a finite
  sequence of blocks) with the paper's prefix/compatible/conflict
  relations.
* :mod:`repro.chain.transactions` — transactions, the global validity
  predicate, and a simple mempool.
* :mod:`repro.chain.store` — a bounded orphan-block buffer used by
  processes whose view of the tree is built incrementally from
  received messages.
* :mod:`repro.chain.tally` — votes as sets (:class:`VoteSet`, ``tip ->
  bitmask of senders``), the incremental prefix-count tally
  (:class:`PrefixTally`) that holds one, and the exact-integer
  :class:`GAOutput` grading that every protocol's GA instances share.
* :mod:`repro.chain.shared` — the run-shared interned tree
  (:class:`SharedChain`) and per-receiver visibility views
  (:class:`ChainView`) behind the simulator's large-n lane.
"""

from repro.chain.block import Block, BlockId, GENESIS_TIP, genesis_block
from repro.chain.log import Log
from repro.chain.shared import ChainView, SharedChain, TreeLike
from repro.chain.store import BlockBuffer
from repro.chain.tally import GAOutput, PrefixTally, VoteSet
from repro.chain.transactions import Mempool, Transaction, is_valid_transaction
from repro.chain.tree import BlockTree

__all__ = [
    "Block",
    "BlockBuffer",
    "BlockId",
    "BlockTree",
    "ChainView",
    "GAOutput",
    "GENESIS_TIP",
    "Log",
    "Mempool",
    "PrefixTally",
    "SharedChain",
    "Transaction",
    "TreeLike",
    "VoteSet",
    "genesis_block",
    "is_valid_transaction",
]
