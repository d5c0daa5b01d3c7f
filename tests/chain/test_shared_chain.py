"""Shared-chain views vs private trees (randomized equivalence oracle).

A :class:`~repro.chain.shared.ChainView` is a pure representation
change: one receiver's visibility-filtered lens over the run's interned
canonical tree must answer every query *exactly* as a private
:class:`~repro.chain.tree.BlockTree` holding the same accepted blocks
would.  These tests drive a view and a private tree through identical
randomized delivery sequences — out-of-order arrival, forks,
re-delivery, orphan buffering with quota eviction — and confront the
full query surface after every step.
"""

import random

import pytest

from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.shared import ChainView, DecidedIndex, SharedChain
from repro.chain.store import BlockBuffer
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree, MissingParentError, UnknownBlockError

# ----------------------------------------------------------------------
# Randomized block pools
# ----------------------------------------------------------------------


def make_pool(rng: random.Random, size: int) -> list[Block]:
    """A random block DAG over genesis: chains, forks, sibling salts."""
    blocks: list[Block] = []
    parents: list[str | None] = [genesis_block().block_id]
    for i in range(size):
        parent = rng.choice(parents[-8:] if rng.random() < 0.7 else parents)
        block = Block(
            parent=parent,
            proposer=rng.randrange(8),
            view=i + 1,
            salt=rng.randrange(3),
        )
        blocks.append(block)
        parents.append(block.block_id)
    return blocks


def assert_same_surface(view: ChainView, tree: BlockTree, rng: random.Random) -> None:
    """Every query a view answers must agree between the pair."""
    assert len(view) == len(tree)
    # The same leaves; a view lists them in canonical intern order.
    assert set(view.tips()) == set(tree.tips())
    assert list(view.tips()) == sorted(view.tips(), key=view.chain.index)
    ids = list(tree.tips()) or [GENESIS_TIP]
    sample = [GENESIS_TIP] + [rng.choice(ids) for _ in range(min(6, len(ids)))]
    for tip in sample:
        assert (tip in view) == (tip in tree)
        assert view.depth(tip) == tree.depth(tip)
        half = tree.depth(tip) // 2
        assert view.ancestor_at_depth(tip, half) == tree.ancestor_at_depth(tip, half)
        assert view.payload_ids(tip) == tree.payload_ids(tip)
        if tip is not GENESIS_TIP:
            assert view.parent(tip) == tree.parent(tip)
            assert view.get(tip) == tree.get(tip)
    for a in sample:
        for b in sample:
            assert view.is_prefix(a, b) == tree.is_prefix(a, b)
            assert view.conflict(a, b) == tree.conflict(a, b)
    assert view.longest(sample) == tree.longest(sample)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_view_matches_private_tree_under_random_delivery(seed):
    """Identical offers through identical buffers -> identical answers.

    Both sides sit behind a small-quota :class:`BlockBuffer`, so the
    sequence exercises orphan buffering, cascaded insertion, vouch
    accounting, and quota eviction on the view exactly as on the tree.
    """
    rng = random.Random(seed)
    pool = make_pool(rng, 80)
    # Chaff whose parents never get delivered keeps eviction pressure on.
    chaff = [
        Block(parent=pool[rng.randrange(len(pool))].block_id, proposer=9, view=999 + i)
        for i in range(10)
    ]
    deliveries = pool + pool[:20] + chaff  # re-deliveries included
    rng.shuffle(deliveries)

    chain = SharedChain()
    view = chain.view()
    tree = BlockTree([genesis_block()])
    view_buffer = BlockBuffer(view, max_orphans_per_source=3)
    tree_buffer = BlockBuffer(tree, max_orphans_per_source=3)

    for step, block in enumerate(deliveries):
        source = rng.randrange(4)
        inserted_view = view_buffer.offer(block, source=source)
        inserted_tree = tree_buffer.offer(block, source=source)
        assert inserted_view == inserted_tree
        assert view_buffer.orphan_ids() == tree_buffer.orphan_ids()
        if step % 7 == 0:
            assert_same_surface(view, tree, rng)
    assert_same_surface(view, tree, rng)


@pytest.mark.parametrize("seed", range(4))
def test_independent_views_see_only_their_own_deliveries(seed):
    """n views over one chain == n private trees, each with its subset."""
    rng = random.Random(100 + seed)
    pool = make_pool(rng, 60)
    chain = SharedChain()
    pairs = []
    for _ in range(4):
        subset = [b for b in pool if rng.random() < 0.6]
        order = subset + subset[: len(subset) // 3]
        rng.shuffle(order)
        pairs.append((chain.view(), BlockTree([genesis_block()]), order))
    # Interleave the receivers round-robin so interning happens in a
    # different order than any single receiver's acceptance order.
    remaining = [list(order) for _, _, order in pairs]
    while any(remaining):
        for (view, tree, _), queue in zip(pairs, remaining):
            if not queue:
                continue
            block = queue.pop()
            if block.parent in tree:
                view.add(block)
                tree.add(block)
    for view, tree, _ in pairs:
        assert_same_surface(view, tree, rng)
    # The canonical tree interned the union, each block exactly once.
    accepted = set()
    for _, tree, _ in pairs:
        accepted.update(tree.tips())
    assert all(tip in chain.tree for tip in accepted)


def test_view_rejects_unknown_parents_and_blocks():
    chain = SharedChain()
    view_a = chain.view()
    view_b = chain.view()
    child = Block(parent=genesis_block().block_id, proposer=0, view=1)
    grandchild = Block(parent=child.block_id, proposer=0, view=2)
    view_a.add(child)
    view_a.add(grandchild)
    # view_b has not accepted `child`: the interned block stays invisible.
    assert child.block_id in view_a
    assert child.block_id not in view_b
    with pytest.raises(MissingParentError):
        view_b.add(grandchild)
    with pytest.raises(UnknownBlockError):
        view_b.depth(child.block_id)
    with pytest.raises(UnknownBlockError):
        view_b.is_prefix(child.block_id, GENESIS_TIP)
    # Accepting the parent heals the view without re-interning anything.
    size = len(chain.tree)
    view_b.add(child)
    view_b.add(grandchild)
    assert len(chain.tree) == size
    assert view_b.depth(grandchild.block_id) == view_a.depth(grandchild.block_id)


def test_watermark_compacts_in_order_acceptance():
    """A caught-up view holds no overflow set — O(1) steady memory."""
    rng = random.Random(42)
    chain = SharedChain()
    eager = chain.view()  # accepts everything immediately (intern order)
    laggard = chain.view()  # accepts in bursts, slightly out of order
    pool = make_pool(rng, 50)
    backlog: list[Block] = []
    for block in pool:
        if block.parent in eager:
            eager.add(block)
            backlog.append(block)
        if len(backlog) >= 10:
            for queued in backlog:
                laggard.add(queued)
            backlog.clear()
    for queued in backlog:
        laggard.add(queued)
    assert not eager._extra
    assert not laggard._extra
    assert len(laggard) == len(eager) == len(chain.tree)


def test_add_is_idempotent_and_indexes_every_insertion_path():
    chain = SharedChain()
    view = chain.view()
    block = Block(parent=genesis_block().block_id, proposer=1, view=1)
    assert view.add(block) == block.block_id
    count = len(view)
    assert view.add(block) == block.block_id  # idempotent, like BlockTree
    assert len(view) == count
    # Blocks added to the canonical tree directly (the simulator's trace
    # buffer path) are indexed too, and become addable to views.
    direct = Block(parent=block.block_id, proposer=2, view=2)
    chain.tree.add(direct)
    assert chain.index(direct.block_id) == len(chain.tree) - 1
    assert direct.block_id not in view
    view.add(direct)
    assert view.depth(direct.block_id) == chain.tree.depth(direct.block_id)


# ----------------------------------------------------------------------
# Run admission: a delivery's blocks taken whole, or not at all
# ----------------------------------------------------------------------
def _siblings(parent: str, count: int, view: int) -> list[Block]:
    return [Block(parent=parent, proposer=p, view=view) for p in range(count)]


def _offer_both_ways(chain: SharedChain, prepare, run):
    """Two views prepared alike: one is offered ``run`` whole, the other
    block by block.  Returns ``(taken whole?, run view, per-block view)``."""
    whole, single = chain.view(), chain.view()
    for view in (whole, single):
        prepare(view)
    buffer = BlockBuffer(whole)
    size = len(whole)
    taken = whole.add_run(run)
    if not taken:
        assert len(whole) == size  # refused: nothing changed
        buffer.offer_run(run)
    for block, _source in run:
        single.add(block)
    assert whole.tips() == single.tips()
    assert len(whole) == len(single)
    assert (whole._floor, whole._extra) == (single._floor, single._extra)
    return taken, whole, single


def test_a_caught_up_view_takes_a_contiguous_run_by_moving_its_watermark():
    chain = SharedChain()
    genesis_id = genesis_block().block_id
    round_one = _siblings(genesis_id, 5, view=1)
    round_two = _siblings(round_one[0].block_id, 5, view=2)
    for block in round_one + round_two:
        chain.tree.add(block)
    first = tuple((block, block.proposer) for block in round_one)
    second = tuple((block, block.proposer) for block in round_two)

    taken, view, _ = _offer_both_ways(chain, lambda v: None, first)
    assert taken and not view._extra and view._floor == 6
    assert view.tips() == tuple(b.block_id for b in round_one)

    # The receiver proposed round_two[3] itself: it sits in the overflow
    # set and is swallowed by the run; the leaves list in intern order.
    def caught_up_and_proposed(v):
        v.add_run(first)
        v.add(round_two[3])

    taken, view, _ = _offer_both_ways(chain, caught_up_and_proposed, second)
    assert taken and not view._extra and view._floor == 11
    assert view.tips() == tuple(b.block_id for b in round_one[1:] + round_two)

    # A redelivery of a run wholly below the watermark is the no-op it is.
    taken, _, _ = _offer_both_ways(chain, caught_up_and_proposed, first)
    assert taken

    # A waker's backlog spans both views: round_two's parent lies inside
    # the run, ahead of its children, so one by one adds it first.
    taken, view, _ = _offer_both_ways(chain, lambda v: None, first + second)
    assert chain.stretch(first + second) == (1, 11)
    assert taken and not view._extra and view._floor == 11


def test_a_run_is_refused_whenever_block_by_block_could_differ():
    chain = SharedChain()
    genesis_id = genesis_block().block_id
    round_one = _siblings(genesis_id, 4, view=1)
    child = Block(parent=round_one[1].block_id, proposer=9, view=2)
    for block in [*round_one, child]:
        chain.tree.add(block)
    run = tuple((block, block.proposer) for block in round_one)

    # A visible block beyond the stretch (a child of one of its blocks):
    # that block is no leaf, which a wholesale leaf update would not know.
    def holds_a_child(v):
        v.add(round_one[1])
        v.add(child)

    taken, view, _ = _offer_both_ways(chain, holds_a_child, run)
    assert not taken and round_one[1].block_id not in view.tips()

    # A lagging view (watermark below the stretch) cannot vouch for the parents.
    later = tuple((b, b.proposer) for b in _siblings(round_one[0].block_id, 3, view=3))
    for block, _source in later:
        chain.tree.add(block)
    taken, _, _ = _offer_both_ways(chain, lambda v: v.add(round_one[0]), later)
    assert not taken

    # Out of intern order, a repeated block, a gap in the intern order
    # (``child`` is index 5, ``run[1]`` index 2), a block nobody
    # interned: no stretch.
    for broken in (
        run[::-1],
        run + run[:1],
        (run[1], (child, 9)),
        ((Block(parent=genesis_id, proposer=7, view=9), 7),),
    ):
        assert chain.stretch(broken) is None
        taken, _, _ = _offer_both_ways(chain, lambda v: None, broken)
        assert not taken


def test_a_waiting_orphan_keeps_the_buffer_on_the_per_block_path():
    """A block of the run may be the parent a buffered orphan waits for:
    only ``offer`` cascades, so a buffer holding orphans never skips it."""
    chain = SharedChain()
    parent = Block(parent=genesis_block().block_id, proposer=0, view=1)
    orphan = Block(parent=parent.block_id, proposer=1, view=2)
    chain.tree.add(parent)
    chain.tree.add(orphan)
    view = chain.view()
    buffer = BlockBuffer(view)
    assert buffer.offer(orphan, source=1) == []
    buffer.offer_run(((parent, 0),))
    assert not buffer.orphan_ids()
    assert orphan.block_id in view and view.tips() == (orphan.block_id,)


def test_a_decided_index_grows_with_its_path_and_keeps_first_depths():
    chain = SharedChain()
    genesis = genesis_block()
    a, b = Transaction.create(1, 0), Transaction.create(1, 1)
    one = Block(parent=genesis.block_id, proposer=0, view=1, payload=(a,))
    two = Block(parent=one.block_id, proposer=1, view=2, payload=(a, b))
    fork = Block(parent=genesis.block_id, proposer=2, view=1, payload=(b,))
    for block in (one, two, fork):
        chain.tree.add(block)
    index = chain.decided
    assert index.advance(one.block_id)
    assert index.depths == {a.tx_id: 2}
    assert index.advance(two.block_id) and index.tip == two.block_id
    # The path carries ``a`` twice: it keeps the shallower depth.
    assert index.depths == {a.tx_id: 2, b.tx_id: 3}
    assert index.advance(genesis.block_id)  # on the path already
    assert not index.advance(fork.block_id)  # off it: nothing changes
    assert index.tip == two.block_id and index.depths == {a.tx_id: 2, b.tx_id: 3}
    rebuilt = index.rebuilt(fork.block_id)
    assert rebuilt.tree is index.tree and rebuilt.depths == {b.tx_id: 2}
    private = DecidedIndex(BlockTree([genesis, one, two]), two.block_id)
    assert private.depths == index.depths
