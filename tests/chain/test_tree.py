"""Block tree: ancestry, prefixes, compatibility, payload memoisation."""

import pytest

from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.transactions import Transaction
from repro.chain.tree import MissingParentError, UnknownBlockError

from tests.conftest import extend, make_chain


def test_empty_log_is_root(tree):
    assert GENESIS_TIP in tree
    assert tree.depth(GENESIS_TIP) == 0
    assert tree.log(GENESIS_TIP).tip is None
    assert len(tree.log(GENESIS_TIP)) == 0


def test_depth_counts_blocks(tree):
    chain = make_chain(tree, 3)
    assert tree.depth(genesis_block().block_id) == 1
    assert tree.depth(chain[-1].block_id) == 4


def test_add_requires_known_parent(tree):
    orphan = Block(parent="ff" * 32, proposer=0, view=1)
    with pytest.raises(MissingParentError):
        tree.add(orphan)


def test_add_is_idempotent(tree, genesis):
    before = len(tree)
    tree.add(genesis)
    assert len(tree) == before


def test_unknown_block_queries_raise(tree):
    with pytest.raises(UnknownBlockError):
        tree.depth("ab" * 32)
    with pytest.raises(UnknownBlockError):
        tree.get("ab" * 32)
    with pytest.raises(UnknownBlockError):
        tree.payload_ids("ab" * 32)


def test_is_prefix_reflexive_and_rooted(tree):
    chain = make_chain(tree, 4)
    tip = chain[-1].block_id
    assert tree.is_prefix(tip, tip)
    assert tree.is_prefix(GENESIS_TIP, tip)
    assert not tree.is_prefix(tip, GENESIS_TIP)


def test_is_prefix_along_chain(tree):
    chain = make_chain(tree, 4)
    assert tree.is_prefix(chain[0].block_id, chain[3].block_id)
    assert tree.is_prefix(chain[2].block_id, chain[3].block_id)
    assert not tree.is_prefix(chain[3].block_id, chain[2].block_id)


def test_forks_conflict(tree, genesis):
    left = extend(tree, genesis.block_id, 2, salt=1)
    right = extend(tree, genesis.block_id, 2, salt=2)
    assert tree.conflict(left[-1].block_id, right[-1].block_id)
    assert tree.compatible(left[0].block_id, left[-1].block_id)
    # Both forks remain compatible with their common prefix.
    assert tree.compatible(genesis.block_id, left[-1].block_id)
    assert tree.compatible(genesis.block_id, right[-1].block_id)


def test_common_prefix_of_forks(tree, genesis):
    left = extend(tree, genesis.block_id, 3, salt=1)
    right = extend(tree, genesis.block_id, 1, salt=2)
    assert tree.common_prefix([left[-1].block_id, right[-1].block_id]) == genesis.block_id
    assert tree.common_prefix([left[-1].block_id, left[1].block_id]) == left[1].block_id
    assert tree.common_prefix([]) is GENESIS_TIP
    assert tree.common_prefix([left[-1].block_id]) == left[-1].block_id


def test_common_prefix_with_empty_log(tree, genesis):
    chain = make_chain(tree, 2)
    assert tree.common_prefix([chain[-1].block_id, GENESIS_TIP]) is GENESIS_TIP


def test_ancestor_at_depth(tree):
    chain = make_chain(tree, 5)
    tip = chain[-1].block_id
    assert tree.ancestor_at_depth(tip, 0) is GENESIS_TIP
    assert tree.ancestor_at_depth(tip, 1) == genesis_block().block_id
    assert tree.ancestor_at_depth(tip, 6) == tip
    with pytest.raises(ValueError):
        tree.ancestor_at_depth(tip, 7)
    with pytest.raises(ValueError):
        tree.ancestor_at_depth(tip, -1)


def test_path_and_log_roundtrip(tree):
    chain = make_chain(tree, 3)
    tip = chain[-1].block_id
    path = tree.path(tip)
    assert path[0] == genesis_block().block_id
    assert path[-1] == tip
    log = tree.log(tip)
    assert [b.block_id for b in log] == list(path)
    assert log.tip == tip


def test_children_and_tips(tree, genesis):
    left = extend(tree, genesis.block_id, 1, salt=1)
    right = extend(tree, genesis.block_id, 1, salt=2)
    assert set(tree.children(genesis.block_id)) == {left[0].block_id, right[0].block_id}
    assert set(tree.tips()) == {left[0].block_id, right[0].block_id}


def test_payload_ids_accumulate(tree, genesis):
    tx1 = Transaction.create(0, 0)
    tx2 = Transaction.create(0, 1)
    b1 = Block(parent=genesis.block_id, proposer=0, view=1, payload=(tx1,))
    tree.add(b1)
    b2 = Block(parent=b1.block_id, proposer=0, view=2, payload=(tx2,))
    tree.add(b2)
    assert tree.payload_ids(genesis.block_id) == frozenset()
    assert tree.payload_ids(b1.block_id) == {tx1.tx_id}
    assert tree.payload_ids(b2.block_id) == {tx1.tx_id, tx2.tx_id}


def test_adding_a_block_does_not_cost_the_length_of_the_log(tree, genesis):
    """A tree stores no per-block cumulative payload set: a 1 000-block
    × 6-transaction chain adds index rows, not 1 000 growing sets
    (which peaked at 136.7 MiB)."""
    import tracemalloc

    blocks, parent = [], genesis.block_id
    for i in range(1000):
        payload = tuple(Transaction.create(i, nonce) for nonce in range(6))
        blocks.append(Block(parent=parent, proposer=0, view=i + 1, payload=payload))
        parent = blocks[-1].block_id
    tracemalloc.start()
    try:
        for block in blocks:
            tree.add(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, f"{peak / 2**20:.1f} MiB"
    assert len(tree.payload_ids(parent)) == 6000


def test_longest_picks_deepest_with_deterministic_ties(tree, genesis):
    left = extend(tree, genesis.block_id, 2, salt=1)
    right = extend(tree, genesis.block_id, 2, salt=2)
    deepest = tree.longest([left[-1].block_id, right[-1].block_id, genesis.block_id])
    assert deepest == max(left[-1].block_id, right[-1].block_id)
    with pytest.raises(ValueError):
        tree.longest([])


def test_longest_includes_empty_log(tree):
    assert tree.longest([GENESIS_TIP]) is GENESIS_TIP
