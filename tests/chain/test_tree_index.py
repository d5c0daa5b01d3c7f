"""The indexed chain core vs naive reference recomputations.

The binary-lifting ancestor index and the incremental
:class:`~repro.chain.tally.PrefixTally` are pure optimisations: every
query must equal what a from-scratch parent walk / recount would
produce, on any tree shape and any vote churn.  These property tests
build randomized trees (deep chains, wide forks, mixed) and confront
the indexed queries with literal reference implementations.
"""

import random
from fractions import Fraction

import pytest

from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.shared import SharedChain
from repro.chain.tally import PrefixTally
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree, UnknownBlockError
from repro.core.expiration import LatestVoteStore
from repro.protocols.graded_agreement import tally_votes


# ----------------------------------------------------------------------
# Reference implementations (deliberately naive)
# ----------------------------------------------------------------------
def naive_ancestor_at_depth(tree, tip, depth):
    node, current = tip, tree.depth(tip)
    while current > depth:
        node = tree.get(node).parent
        current -= 1
    return node


def naive_is_prefix(tree, a, b):
    if tree.depth(a) > tree.depth(b):
        return False
    return naive_ancestor_at_depth(tree, b, tree.depth(a)) == a


def naive_common_prefix(tree, tips):
    result, first = GENESIS_TIP, True
    for tip in tips:
        if first:
            result, first = tip, False
            continue
        depth = min(tree.depth(result), tree.depth(tip))
        a = naive_ancestor_at_depth(tree, result, depth)
        b = naive_ancestor_at_depth(tree, tip, depth)
        while a != b:
            a, b = tree.get(a).parent, tree.get(b).parent
        result = a
    return result


def naive_tips(tree, insertion_order):
    return tuple(bid for bid in insertion_order if not tree.children(bid))


def naive_payload_ids(tree, tip, above=GENESIS_TIP):
    ids = set()
    node = tip
    while node != above:
        block = tree.get(node)
        ids.update(tx.tx_id for tx in block.payload)
        node = block.parent
    return ids


def naive_prefix_counts(tree, votes):
    counts = {}
    for tip in votes.values():
        node = tip
        while node is not GENESIS_TIP:
            counts[node] = counts.get(node, 0) + 1
            node = tree.get(node).parent
        counts[GENESIS_TIP] = counts.get(GENESIS_TIP, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Randomized tree shapes
# ----------------------------------------------------------------------
def build_tree(rng, blocks, shape, txs_per_block=0):
    """A seeded random tree; returns (tree, block ids in insertion order).

    With ``txs_per_block``, payloads draw from a small pool, so competing
    forks (and, rarely, one path) carry the same transaction twice.
    """
    tree = BlockTree([genesis_block()])
    ids = [genesis_block().block_id]
    pool = [Transaction.create(0, nonce) for nonce in range(blocks * txs_per_block // 2)]
    for i in range(blocks):
        if shape == "deep":  # one long chain with rare shallow stubs
            parent = ids[-1] if rng.random() < 0.95 else rng.choice(ids)
        elif shape == "wide":  # everything forks near the root
            parent = rng.choice(ids[: max(1, len(ids) // 8)] + [None])
        else:  # mixed: uniform parents, occasional root forks
            parent = rng.choice(ids + [None])
        block = Block(
            parent=parent,
            proposer=i % 5,
            view=i + 1,
            payload=tuple(rng.sample(pool, txs_per_block)),
            salt=rng.randrange(1 << 30),
        )
        tree.add(block)
        ids.append(block.block_id)
    return tree, ids


def as_view(tree):
    """A :class:`ChainView` that has accepted every block of ``tree``."""
    view = SharedChain().view()
    for block in tree.blocks():
        view.add(block)
    return view


TREE_KINDS = {"tree": lambda tree: tree, "view": as_view}


@pytest.mark.parametrize("shape", ["deep", "wide", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indexed_ancestry_queries_match_naive_walks(shape, seed):
    rng = random.Random(seed)
    tree, ids = build_tree(rng, 150, shape)
    nodes = ids + [GENESIS_TIP]
    for _ in range(400):
        tip = rng.choice(nodes)
        depth = rng.randrange(tree.depth(tip) + 1)
        assert tree.ancestor_at_depth(tip, depth) == naive_ancestor_at_depth(tree, tip, depth)
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert tree.is_prefix(a, b) == naive_is_prefix(tree, a, b)
        assert tree.compatible(a, b) == (
            naive_is_prefix(tree, a, b) or naive_is_prefix(tree, b, a)
        )
        group = [rng.choice(nodes) for _ in range(rng.randrange(2, 5))]
        assert tree.common_prefix(group) == naive_common_prefix(tree, group)


@pytest.mark.parametrize("shape", ["deep", "wide", "mixed"])
def test_tips_match_full_scan_in_insertion_order(shape):
    rng = random.Random(7)
    tree, ids = build_tree(rng, 120, shape)
    assert tree.tips() == naive_tips(tree, ids)


def test_deep_chain_boundary_depths():
    """Power-of-two depths exercise every skip-table boundary."""
    tree = BlockTree([genesis_block()])
    chain = [genesis_block().block_id]
    parent = chain[0]
    for i in range(130):
        block = Block(parent=parent, proposer=0, view=i + 1)
        tree.add(block)
        chain.append(block.block_id)
        parent = block.block_id
    tip = chain[-1]
    assert tree.depth(tip) == 131
    for depth in [1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130, 131]:
        assert tree.ancestor_at_depth(tip, depth) == chain[depth - 1]
    assert tree.ancestor_at_depth(tip, 0) is GENESIS_TIP
    with pytest.raises(ValueError):
        tree.ancestor_at_depth(tip, 132)


def test_lca_of_root_level_forks():
    """Forks whose only common prefix is the empty log (the regression
    that requires guarding shrinking skip tables during LCA descent)."""
    tree = BlockTree()
    tips = []
    for salt in (1, 2):
        parent = None
        for i in range(5):
            block = Block(parent=parent, proposer=0, view=i + 1, salt=salt)
            tree.add(block)
            parent = block.block_id
        tips.append(parent)
    assert tree.common_prefix(tips) is GENESIS_TIP
    assert tree.conflict(tips[0], tips[1])


# ----------------------------------------------------------------------
# PrefixTally vs from-scratch recounts under vote churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["deep", "wide", "mixed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_prefix_tally_counts_and_grades_under_churn(shape, seed):
    rng = random.Random(seed)
    tree, ids = build_tree(rng, 100, shape)
    nodes = ids + [GENESIS_TIP]
    tally = PrefixTally(tree)
    votes = {}
    betas = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)]
    for step in range(300):
        sender = rng.randrange(20)
        action = rng.random()
        if action < 0.15 and sender in votes:
            del votes[sender]
        else:
            votes[sender] = rng.choice(nodes)
        tally.set_votes(votes)
        if step % 20 == 0:
            counts = naive_prefix_counts(tree, votes)
            for node in rng.sample(nodes, 25):
                assert tally.count(node) == counts.get(node, 0)
            beta = rng.choice(betas)
            assert tally.grade(beta) == tally_votes(tree, votes, beta)


def test_set_votes_diff_equals_fresh_build():
    rng = random.Random(3)
    tree, ids = build_tree(rng, 80, "mixed")
    nodes = ids + [GENESIS_TIP]
    tally = PrefixTally(tree)
    for _ in range(20):
        target = {pid: rng.choice(nodes) for pid in rng.sample(range(30), rng.randrange(1, 25))}
        tally.set_votes(target)
        assert dict(tally.votes) == target
        assert tally.grade() == PrefixTally(tree, target).grade()


@pytest.mark.parametrize("kind", TREE_KINDS)
@pytest.mark.parametrize("shape", ["deep", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_set_votes_matches_recount(kind, shape, seed):
    """Many voters sharing few transitions — the protocol's shape: camps
    that advance tip → child together or jump across a fork together,
    with voters entering, leaving and straying in the same call."""
    rng = random.Random(seed)
    plain, ids = build_tree(rng, 120, shape)
    tree = TREE_KINDS[kind](plain)
    nodes = ids + [GENESIS_TIP]
    voters = range(40)
    camp_of = {pid: pid % 3 for pid in voters}
    camp_tip = [rng.choice(nodes) for _ in range(3)]
    tally = PrefixTally(tree)
    target: dict = {}
    betas = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)]
    for _ in range(60):
        for camp in range(3):
            children = plain.children(camp_tip[camp])
            if children and rng.random() < 0.7:
                camp_tip[camp] = rng.choice(children)  # tip -> child
            elif rng.random() < 0.5:
                camp_tip[camp] = rng.choice(nodes)  # across a fork
        target = {pid: camp_tip[camp_of[pid]] for pid in target} if target else {}
        for pid in rng.sample(voters, 6):
            roll = rng.random()
            if roll < 0.4:
                target.pop(pid, None)  # leaves the window
            elif roll < 0.8:
                target[pid] = camp_tip[camp_of[pid]]  # enters with its camp
            else:
                target[pid] = rng.choice(nodes)  # strays on its own
        tally.set_votes(target)
        assert dict(tally.votes) == target
        counts = naive_prefix_counts(plain, target)
        for node in nodes:
            assert tally.count(node) == counts.get(node, 0)
        beta = rng.choice(betas)
        assert tally.grade(beta) == PrefixTally(tree, target).grade(beta)


def test_weighted_transition_across_a_fork_moves_the_whole_camp():
    """One (old tip → new tip) transition whose LCA lies below both tips."""
    tree = BlockTree([genesis_block()])
    trunk = genesis_block().block_id
    branches = []
    for salt in (1, 2):
        parent = trunk
        for i in range(4):
            block = Block(parent=parent, proposer=0, view=i + 1, salt=salt)
            tree.add(block)
            parent = block.block_id
        branches.append(parent)
    left, right = branches
    tally = PrefixTally(tree, {pid: left for pid in range(9)})
    tally.set_votes({pid: right for pid in range(9)})
    assert tally.count(left) == 0 and tally.count(right) == 9
    assert tally.count(tree.parent(left)) == 0
    assert tally.count(trunk) == 9 and tally.count(GENESIS_TIP) == 9
    assert tally.grade() == PrefixTally(tree, {pid: right for pid in range(9)}).grade()


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_set_votes_with_an_unknown_tip_changes_nothing(kind):
    rng = random.Random(5)
    plain, ids = build_tree(rng, 60, "mixed")
    tree = TREE_KINDS[kind](plain)
    nodes = ids + [GENESIS_TIP]
    before = {pid: rng.choice(nodes) for pid in range(20)}
    tally = PrefixTally(tree, before)
    counts = {node: tally.count(node) for node in nodes}
    grades = tally.grade()
    # Valid moves, a departure and an arrival ride along with the bad tip.
    bad = {pid: rng.choice(nodes) for pid in range(1, 25)}
    bad[7] = "ab" * 32
    with pytest.raises(UnknownBlockError):
        tally.set_votes(bad)
    assert dict(tally.votes) == before
    assert {node: tally.count(node) for node in nodes} == counts
    assert tally.grade() == grades
    with pytest.raises(UnknownBlockError):  # from empty, too
        PrefixTally(tree).set_votes({0: ids[3], 1: "cd" * 32})


def test_a_tip_not_yet_visible_in_a_view_is_unknown_to_its_tally():
    chain = SharedChain()
    seen, blind = chain.view(), chain.view()
    block = Block(parent=genesis_block().block_id, proposer=0, view=1)
    seen.add(block)
    tally = PrefixTally(blind, {0: genesis_block().block_id})
    with pytest.raises(UnknownBlockError):
        tally.set_votes({0: block.block_id})
    assert dict(tally.votes) == {0: genesis_block().block_id}
    assert tally.count(genesis_block().block_id) == 1


def test_tally_tracks_tree_growth():
    """A vote moved onto a block inserted after the tally was built."""
    tree = BlockTree([genesis_block()])
    tally = PrefixTally(tree, {0: genesis_block().block_id})
    block = Block(parent=genesis_block().block_id, proposer=0, view=1)
    tree.add(block)  # block insertion needs no tally maintenance
    assert tally.count(block.block_id) == 0
    tally.set_votes({0: block.block_id})
    assert tally.count(block.block_id) == 1
    assert tally.count(genesis_block().block_id) == 1
    assert tally.count(GENESIS_TIP) == 1


def test_tally_rejects_unknown_tips():
    tree = BlockTree([genesis_block()])
    tally = PrefixTally(tree)
    with pytest.raises(UnknownBlockError):
        tally.set_votes({0: "ab" * 32})
    with pytest.raises(UnknownBlockError):
        tally.count("ab" * 32)
    tally.set_votes({0: GENESIS_TIP})
    assert len(tally) == 1
    tally.set_votes({})
    assert len(tally) == 0
    assert tally.grade().m == 0


def test_grades_after_equivocator_discard_churn():
    """The protocol feed: LatestVoteStore windows (equivocators dropped,
    sleep/wake churn) rolled into one persistent tally per receiver."""
    rng = random.Random(11)
    tree, ids = build_tree(rng, 60, "mixed")
    nodes = ids + [GENESIS_TIP]
    store = LatestVoteStore()
    tally = PrefixTally(tree)
    eta = 3
    for round_number in range(40):
        for sender in range(12):
            if rng.random() < 0.6:  # awake this round
                store.record(sender, round_number, rng.choice(nodes))
                if rng.random() < 0.1:  # equivocate: a second, different vote
                    store.record(sender, round_number, rng.choice(nodes))
        lo = max(0, round_number - eta)
        window = store.latest(lo, round_number)
        tally.set_votes(window)
        assert tally.grade() == tally_votes(tree, window)


# ----------------------------------------------------------------------
# Log membership: a path walk on demand, nothing stored per block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", TREE_KINDS)
@pytest.mark.parametrize("shape", ["deep", "wide", "mixed"])
def test_payload_ids_equal_brute_force_path_union(kind, shape):
    rng = random.Random(13)
    plain, ids = build_tree(rng, 120, shape, txs_per_block=3)
    tree = TREE_KINDS[kind](plain)
    nodes = ids + [GENESIS_TIP]
    for _ in range(200):
        tip = rng.choice(nodes)
        whole = tree.payload_ids(tip)
        assert isinstance(whole, frozenset)
        assert whole == naive_payload_ids(plain, tip)
        above = plain.ancestor_at_depth(tip, rng.randrange(plain.depth(tip) + 1))
        segment = tree.payload_ids(tip, above=above)
        assert isinstance(segment, frozenset)
        assert segment == naive_payload_ids(plain, tip, above)
        other = rng.choice(nodes)
        if not plain.is_prefix(other, tip):
            with pytest.raises(ValueError):
                tree.payload_ids(tip, above=other)
    assert tree.payload_ids(GENESIS_TIP) == frozenset()
    with pytest.raises(UnknownBlockError):
        tree.payload_ids("ab" * 32)
    with pytest.raises(UnknownBlockError):
        tree.payload_ids(ids[-1], above="ab" * 32)
