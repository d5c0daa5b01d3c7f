"""Grading off the frontier vs a brute-force recount — and what it costs.

The protocol reads two tips and ``m`` from :class:`PrefixTally` (the
deepest node above each threshold); :meth:`PrefixTally.grade` is the
enumeration derived from the same frontiers.  Both must equal what a
literal recount of every vote's every prefix produces, on any tree and
any vote map, and the read must not get dearer as the chain grows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.tally import PrefixTally, grade_thresholds
from repro.chain.tree import BlockTree, UnknownBlockError
from repro.core.extended_ga import GradedAgreement

from tests.chain.test_tree_index import TREE_KINDS, naive_prefix_counts

BETAS = [Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)]
UNKNOWN_TIP = "ee" * 32


def grown_tree(shape):
    """A tree from a list of ints: most extend the newest block (deep
    branches), every fourth picks any node — the virtual root included —
    as parent (forks, equal-depth siblings)."""
    tree = BlockTree([genesis_block()])
    nodes = [GENESIS_TIP, genesis_block().block_id]
    for i, pick in enumerate(shape):
        parent = nodes[pick // 4 % len(nodes)] if pick % 4 == 0 else nodes[-1]
        block = Block(parent=parent, proposer=i % 5, view=i + 1, salt=pick)
        tree.add(block)
        nodes.append(block.block_id)
    return tree, nodes


def recount(tree, votes, beta):
    """Figure 2 by the book: count every prefix of every vote, compare
    ``count·den`` with the thresholds, sort by ``(depth, tip id)``."""
    counts = naive_prefix_counts(tree, votes)
    m, num, den = len(votes), beta.numerator, beta.denominator
    key = lambda tip: (tree.depth(tip), tip if tip is not None else "")  # noqa: E731
    grade1 = sorted((t for t, c in counts.items() if c * den > (den - num) * m), key=key)
    grade0 = sorted(
        (t for t, c in counts.items() if (den - num) * m >= c * den > num * m), key=key
    )
    return tuple(grade1), tuple(grade0)


shapes = st.lists(st.integers(min_value=0, max_value=1_000), max_size=60)


@pytest.mark.parametrize("kind", TREE_KINDS)
@settings(max_examples=120, deadline=None)
@given(shape=shapes, data=st.data())
def test_the_frontier_reads_equal_the_enumeration_of_a_recount(kind, shape, data):
    plain, nodes = grown_tree(shape)
    tree = TREE_KINDS[kind](plain)
    picks = data.draw(
        st.dictionaries(st.integers(0, 24), st.integers(0, len(nodes)), max_size=25)
    )
    beta = data.draw(st.sampled_from(BETAS))
    # Index len(nodes) is a tip the tree has never heard of.
    cast = {pid: nodes[i] if i < len(nodes) else UNKNOWN_TIP for pid, i in picks.items()}
    votes = {pid: tip for pid, tip in cast.items() if tip != UNKNOWN_TIP}

    ga = GradedAgreement(tree, beta)
    for pid, tip in cast.items():
        ga.votes.record(pid, 0, tip)
    m, longest_grade1, longest_any, grade1_count = ga.longest(0, 0)
    tally = ga.reads.tally
    assert dict(tally.votes) == votes  # the unknown tip is left out, not counted
    assert m == len(votes)
    assert grade1_count == tally.count(longest_grade1)

    grade1, grade0 = recount(plain, votes, beta)
    output = ga.output(0, 0)
    assert (output.grade1, output.grade0, output.m) == (grade1, grade0, m)
    threshold1, threshold0 = grade_thresholds(beta, m)
    if m == 0:
        assert grade1 == grade0 == ()
        assert (longest_grade1, longest_any, grade1_count) == (GENESIS_TIP, GENESIS_TIP, 0)
        assert tally.deepest_above(threshold1) is None
        assert tally.deepest_above(threshold0) is None
        return
    assert longest_grade1 == plain.longest(grade1)
    assert longest_any == plain.longest(grade1 + grade0)
    depth, tip = tally.deepest_above(threshold1)
    assert (depth, tip) == (plain.depth(longest_grade1), longest_grade1)

    # A set_votes that fails moves neither the reads nor the enumeration.
    with pytest.raises(UnknownBlockError):
        tally.set_votes({**votes, 99: UNKNOWN_TIP, 0: GENESIS_TIP})
    assert tally.deepest_above(threshold1) == (depth, tip)
    assert tally.deepest_above(threshold0)[1] == longest_any
    assert tally.grade(beta) == output


def test_a_stale_vote_deep_down_a_dead_branch_is_bisected_to_the_same_answer():
    """Past the few parent steps a walk takes, the frontier bisects on
    depth: same node, whatever the branch length."""
    tree = BlockTree([genesis_block()])
    trunk, stale = [genesis_block().block_id], []
    for salt, branch, length in ((1, trunk, 6), (2, stale, 40)):
        parent = trunk[0] if branch is stale else trunk[-1]
        for i in range(length):
            block = Block(parent=parent, proposer=0, view=i + 1, salt=salt)
            tree.add(block)
            branch.append(block.block_id)
            parent = block.block_id
    votes = {pid: trunk[-1] for pid in range(8)} | {8: stale[-1], 9: stale[20]}
    tally = PrefixTally(tree, votes)
    for beta in BETAS:
        grade1, grade0 = recount(tree, votes, beta)
        threshold1, threshold0 = grade_thresholds(beta, len(votes))
        assert tally.deepest_above(threshold1)[1] == tree.longest(grade1)
        assert tally.deepest_above(threshold0)[1] == tree.longest(grade1 + grade0)
        assert tally.grade(beta).grade0 == grade0
    # One voter is above a threshold of zero: the stale tip itself.
    assert tally.deepest_above(0) == (tree.depth(stale[-1]), stale[-1])


def test_beta_is_validated_where_it_enters():
    tree = BlockTree([genesis_block()])
    for junk in (Fraction(0), Fraction(2, 3)):
        with pytest.raises(ValueError, match="β"):
            GradedAgreement(tree, junk)
        with pytest.raises(ValueError, match="β"):
            PrefixTally(tree, {0: GENESIS_TIP}).grade(junk)


class CountingTree:
    """Forwards to a tree, counting the node reads a tally makes."""

    def __init__(self, tree):
        self._tree = tree
        self.reads = 0

    def __contains__(self, tip):
        return tip in self._tree

    def depth(self, tip):
        self.reads += 1
        return self._tree.depth(tip)

    def parent(self, tip):
        self.reads += 1
        return self._tree.parent(tip)

    def ancestor_at_depth(self, tip, depth):
        self.reads += 1
        return self._tree.ancestor_at_depth(tip, depth)

    def common_prefix(self, tips):
        return self._tree.common_prefix(tips)

    longest = BlockTree.longest  # written against ``self.depth``: its reads count


class CountingCounts(dict):
    """The tally's count table, counting ``get`` probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)


def steady_state_read_cost(depth):
    """Node reads of one computed GA query when 30 voters sit on the
    newest block of a ``depth``-long chain, two lag a block behind and
    one two — and then moves up a block."""
    tree = BlockTree([genesis_block()])
    chain = [genesis_block().block_id]
    for i in range(depth - 1):
        block = Block(parent=chain[-1], proposer=0, view=i + 1)
        tree.add(block)
        chain.append(block.block_id)
    counting = CountingTree(tree)
    ga = GradedAgreement(counting)
    for pid in range(33):
        ga.votes.record(pid, 0, chain[-1] if pid < 30 else chain[-2] if pid < 32 else chain[-3])
    ga.longest(0, 1)  # builds the counts: O(depth), paid once
    tally = ga.reads.tally
    tally._counts = CountingCounts(tally._counts)
    counting.reads = 0
    # A new window (an already-read one would cost no reads at all).
    ga.votes.record(32, 1, chain[-2])
    m, longest_grade1, longest_any, _ = ga.longest(0, 1)
    assert (m, longest_grade1, longest_any) == (33, chain[-1], chain[-1])
    assert ga.reads.stats == {"computed": 2, "shared": 0}
    return counting.reads + tally._counts.probes


def test_a_ga_read_costs_the_same_on_a_chain_ten_times_as_long():
    """Counted, not timed: depth, parent and count reads of one
    steady-state query do not grow with the chain being decided."""
    short, long = steady_state_read_cost(40), steady_state_read_cost(400)
    assert long <= short
    assert short < 40  # and it is a handful of reads, not a walk of the chain
