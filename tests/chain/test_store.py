"""Orphan buffering: out-of-order block arrival and bounded growth."""

import pytest

from repro.chain.block import Block
from repro.chain.shared import SharedChain
from repro.chain.store import DEFAULT_ORPHANS_PER_SOURCE, BlockBuffer


def _chain_from(genesis, length):
    blocks = []
    parent = genesis.block_id
    for i in range(length):
        block = Block(parent=parent, proposer=0, view=i + 1)
        blocks.append(block)
        parent = block.block_id
    return blocks


def test_in_order_insertion(tree, genesis):
    buffer = BlockBuffer(tree)
    blocks = _chain_from(genesis, 3)
    for block in blocks:
        inserted = buffer.offer(block)
        assert inserted == [block.block_id]
    assert len(buffer) == 0


def test_orphans_wait_for_parent(tree, genesis):
    buffer = BlockBuffer(tree)
    b1, b2, b3 = _chain_from(genesis, 3)
    assert buffer.offer(b3) == []
    assert buffer.offer(b2) == []
    assert buffer.orphan_ids() == {b2.block_id, b3.block_id}
    # Parent arrival cascades the whole buffered suffix.
    inserted = buffer.offer(b1)
    assert set(inserted) == {b1.block_id, b2.block_id, b3.block_id}
    assert len(buffer) == 0
    assert b3.block_id in tree


def test_duplicate_offers_are_noops(tree, genesis):
    buffer = BlockBuffer(tree)
    (b1,) = _chain_from(genesis, 1)
    assert buffer.offer(b1) == [b1.block_id]
    assert buffer.offer(b1) == []
    b2 = Block(parent=b1.block_id, proposer=0, view=2)
    b3 = Block(parent=b2.block_id, proposer=0, view=3)
    assert buffer.offer(b3) == []
    assert buffer.offer(b3) == []  # buffered twice: still one orphan
    assert buffer.orphan_ids() == {b3.block_id}
    assert set(buffer.offer(b2)) == {b2.block_id, b3.block_id}


def test_reoffered_orphan_is_released_when_its_parent_came_by_another_route(tree, genesis):
    """The parent reaches the tree without passing through this buffer
    (a direct add); the orphan's next delivery must insert it, cascade
    its own waiting children, and clear its vouches."""
    buffer = BlockBuffer(tree, max_orphans_per_source=2)
    b1, b2, b3 = _chain_from(genesis, 3)
    assert buffer.offer(b3, source=1) == []
    assert buffer.offer(b2, source=1) == []
    tree.add(b1)
    assert buffer.offer(b2, source=2) == [b2.block_id, b3.block_id]
    assert b3.block_id in tree
    assert len(buffer) == 0
    # Source 1's quota is free again: two fresh orphans both fit.
    for i in range(2):
        buffer.offer(_chaff(i), source=1)
    assert len(buffer) == 2


def test_two_buffers_over_one_view_release_each_others_orphans(genesis):
    view = SharedChain().view()
    first, second = BlockBuffer(view), BlockBuffer(view)
    b1, b2 = _chain_from(genesis, 2)
    assert first.offer(b2) == []
    assert second.offer(b1) == [b1.block_id]
    assert first.offer(b2) == [b2.block_id]
    assert first.orphan_ids() == frozenset()


def test_forked_orphans_cascade_together(tree, genesis):
    buffer = BlockBuffer(tree)
    parent = Block(parent=genesis.block_id, proposer=0, view=1)
    left = Block(parent=parent.block_id, proposer=0, view=2, salt=1)
    right = Block(parent=parent.block_id, proposer=0, view=2, salt=2)
    buffer.offer(left)
    buffer.offer(right)
    inserted = buffer.offer(parent)
    assert set(inserted) == {parent.block_id, left.block_id, right.block_id}


# ----------------------------------------------------------------------
# Bounded orphan growth (the adversarial-chaff regression)
# ----------------------------------------------------------------------
def _chaff(i):
    """A block claiming a parent that will never be delivered."""
    return Block(parent=f"{i:064x}", proposer=99, view=1, salt=i)


def test_orphan_buffer_is_bounded_under_adversarial_chaff(tree):
    """Blocks claiming never-delivered parents must not accumulate forever."""
    buffer = BlockBuffer(tree, max_orphans_per_source=8)
    for i in range(100):
        assert buffer.offer(_chaff(i), source=7) == []
    assert len(buffer) == 8
    # The survivors are the most recently buffered (insertion-ordered quota).
    assert buffer.orphan_ids() == {_chaff(i).block_id for i in range(92, 100)}


def test_default_quota_is_generous_and_enforced(tree):
    buffer = BlockBuffer(tree)
    for i in range(DEFAULT_ORPHANS_PER_SOURCE + 50):
        buffer.offer(_chaff(i), source=7)
    assert len(buffer) == DEFAULT_ORPHANS_PER_SOURCE


def test_chaff_from_one_source_cannot_evict_another_sources_orphan(tree, genesis):
    """The load-bearing property: flooding is charged to the flooder's
    quota, so an honest sender's out-of-order block survives any amount
    of Byzantine chaff from other identities."""
    buffer = BlockBuffer(tree, max_orphans_per_source=4)
    b1, b2 = _chain_from(genesis, 2)
    buffer.offer(b2, source=1)  # honest sender 1, parent still in flight
    for i in range(100):  # Byzantine sender 66 floods far past any quota
        buffer.offer(_chaff(i), source=66)
    assert b2.block_id in buffer.orphan_ids()
    assert len(buffer) == 5  # honest orphan + the flooder's own quota
    assert set(buffer.offer(b1, source=1)) == {b1.block_id, b2.block_id}
    assert b2.block_id in tree


def test_front_running_a_block_does_not_make_it_evictable(tree, genesis):
    """A Byzantine sender offering an honest block first (charging it to
    its own bucket) and then flooding must not evict it once the honest
    carrier's delivery adds its own vouch."""
    buffer = BlockBuffer(tree, max_orphans_per_source=4)
    b1, b2 = _chain_from(genesis, 2)
    buffer.offer(b2, source=66)  # Byzantine front-run: charged to 66
    buffer.offer(b2, source=1)  # honest carrier arrives: co-vouched
    for i in range(100):  # 66 floods far past its quota
        buffer.offer(_chaff(i), source=66)
    assert b2.block_id in buffer.orphan_ids()  # survives on sender 1's vouch
    assert len(buffer) == 5
    assert set(buffer.offer(b1, source=1)) == {b1.block_id, b2.block_id}


def test_eviction_sheds_only_the_flooders_backlog(tree, genesis):
    """Within one source the oldest orphan goes first, and honest
    cascade still works for everything under the quota."""
    buffer = BlockBuffer(tree, max_orphans_per_source=8)
    b1, b2, b3 = _chain_from(genesis, 3)
    buffer.offer(b3, source=1)
    buffer.offer(b2, source=1)
    for i in range(20):
        buffer.offer(_chaff(i), source=2)
    assert len(buffer) == 10  # sender 1's two + sender 2's quota of 8
    inserted = buffer.offer(b1, source=1)  # parent arrives: suffix cascades
    assert set(inserted) == {b1.block_id, b2.block_id, b3.block_id}
    assert b3.block_id in tree
    assert len(buffer) == 8  # only the chaff remains


def test_evicted_orphan_can_be_reoffered_once_its_parent_arrives(tree, genesis):
    buffer = BlockBuffer(tree, max_orphans_per_source=2)
    b1, b2 = _chain_from(genesis, 2)
    buffer.offer(b2, source=1)
    for i in range(4):
        buffer.offer(_chaff(i), source=1)  # same source: evicts b2, then its own
    assert b2.block_id not in buffer.orphan_ids()
    buffer.offer(b1, source=1)  # parent arrives; the evicted child is gone
    assert b1.block_id in tree and b2.block_id not in tree
    # Redelivery after eviction inserts normally.
    assert buffer.offer(b2, source=1) == [b2.block_id]


def test_unbounded_and_invalid_quotas(tree):
    unbounded = BlockBuffer(tree, max_orphans_per_source=None)
    for i in range(60):
        unbounded.offer(_chaff(i), source=7)
    assert len(unbounded) == 60
    with pytest.raises(ValueError):
        BlockBuffer(tree, max_orphans_per_source=0)
