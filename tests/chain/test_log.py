"""Log value object: chain validation, materialised contents, and
Definition 1's relations between materialised logs, decided on the tree
that holds their blocks."""

import pytest

from repro.chain.block import Block, genesis_block
from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree


def _chain(length: int, salt: int = 0) -> list[Block]:
    blocks = [genesis_block()]
    for i in range(length):
        blocks.append(Block(parent=blocks[-1].block_id, proposer=0, view=i + 1, salt=salt))
    return blocks


def test_empty_log():
    log = Log(())
    assert len(log) == 0
    assert log.tip is None
    assert log.transactions() == ()


def test_log_validates_chain_structure():
    blocks = _chain(2)
    Log(tuple(blocks))  # valid
    with pytest.raises(ValueError, match="chain"):
        Log((blocks[0], blocks[2]))  # skipped a link
    with pytest.raises(ValueError, match="chain"):
        Log((blocks[1],))  # first block is not a root


def test_prefix_relations():
    blocks = _chain(3)
    short = Log(tuple(blocks[:2]))
    long = Log(tuple(blocks))
    tree = BlockTree(long)
    assert tree.is_prefix(short.tip, long.tip)
    assert not tree.is_prefix(long.tip, short.tip)
    assert tree.is_prefix(short.tip, short.tip)
    assert tree.is_prefix(Log(()).tip, short.tip)


def test_conflicting_logs():
    left = Log(tuple(_chain(2, salt=1)))
    right = Log(tuple(_chain(2, salt=2)))
    tree = BlockTree((*left, *right))
    # Both share the genesis prefix but fork immediately after.
    assert tree.conflict(left.tip, right.tip)
    assert not tree.compatible(left.tip, right.tip)
    assert tree.compatible(left.tip, Log(tuple(left.blocks[:1])).tip)


def test_log_iteration_and_indexing():
    blocks = _chain(2)
    log = Log(tuple(blocks))
    assert list(log) == blocks
    assert log[0] == blocks[0]
    assert log[-1] == blocks[-1]
    assert log.tip == blocks[-1].block_id


def test_log_transactions_in_order():
    tx1, tx2 = Transaction.create(0, 0), Transaction.create(0, 1)
    g = genesis_block()
    b1 = Block(parent=g.block_id, proposer=0, view=1, payload=(tx1,))
    b2 = Block(parent=b1.block_id, proposer=0, view=2, payload=(tx2,))
    assert Log((g, b1, b2)).transactions() == (tx1, tx2)
