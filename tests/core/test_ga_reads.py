"""One graded-agreement read per distinct window, shared between views.

Every :class:`~repro.core.extended_ga.GradedAgreement` over a view of one
:class:`~repro.chain.shared.SharedChain` reads through the chain's one
:class:`~repro.core.extended_ga.GAReads`, which keys a read by the
content of the window tallied.  The differential below pins that this
is sound: whatever the order in which views with different visible
sets ask, and however often the LRU evicts, each view must read exactly
what a fresh private ``GradedAgreement`` over a tree holding just that
view's blocks reads.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.shared import SharedChain
from repro.chain.tree import BlockTree
from repro.core.extended_ga import READS_HELD, GAReads, GradedAgreement

BETAS = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)]
SENDERS = range(8)
VIEWS = 3
UNKNOWN = "ee" * 32
VOIDED = "voided"


def forked_chain():
    """A trunk, a fork off its third block, and a stale branch off
    genesis long enough that a frontier walk on it bisects."""
    chain = SharedChain()
    genesis = genesis_block().block_id
    blocks = []

    def grow(parent, length, salt):
        for i in range(length):
            block = Block(parent=parent, proposer=salt, view=i + 1, salt=salt)
            chain.tree.add(block)
            blocks.append(block)
            parent = block.block_id

    grow(genesis, 7, 1)
    grow(blocks[2].block_id, 3, 2)
    grow(genesis, 14, 3)
    return chain, blocks


def private_twin(view, blocks):
    """A private tree holding exactly the blocks ``view`` has accepted."""
    tree = BlockTree([genesis_block()])
    for block in blocks:
        if block.block_id in view:
            tree.add(block)
    return tree


@st.composite
def windows(draw, tips):
    """A window voting a few tips of ``tips``, most senders present."""
    palette = draw(st.lists(st.sampled_from(tips), min_size=1, max_size=3))
    cast = draw(st.lists(st.sampled_from(palette), min_size=len(SENDERS), max_size=len(SENDERS)))
    absent = draw(st.sets(st.sampled_from(SENDERS), max_size=3))
    return {sender: tip for sender, tip in zip(SENDERS, cast) if sender not in absent}


@st.composite
def near_twins(draw, tips):
    """A window and the same senders with one moved onto another's tip:
    what a key coarser than the window's content would confuse."""
    window = draw(windows(tips))
    if not window:
        return [window]
    moved, onto = draw(st.lists(st.sampled_from(sorted(window)), min_size=2, max_size=2))
    return [window, {**window, moved: window[onto]}]


def record(ga, window):
    for sender, tip in window.items():
        if tip == VOIDED:  # two different signed votes void the slot
            ga.votes.record(sender, 0, "x")
            ga.votes.record(sender, 0, "y")
        else:
            ga.votes.record(sender, 0, tip)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_shared_reads_object_answers_every_view_as_its_private_tree_would(data):
    chain, blocks = forked_chain()
    genesis = genesis_block().block_id
    views = [chain.view() for _ in range(VIEWS)]
    for view in views:  # a random ancestor-closed subset of the chain
        for block in blocks:
            if block.parent in view and data.draw(st.integers(0, 3)):
                view.add(block)
    twins = [private_twin(view, blocks) for view in views]

    tips = [GENESIS_TIP, genesis, UNKNOWN, VOIDED] + [b.block_id for b in blocks]
    # More distinct windows than the reads object holds, each asked for
    # by any view any number of times, near twins also back to back.
    pairs = data.draw(
        st.lists(near_twins(tips), min_size=READS_HELD // 2 + 2, max_size=READS_HELD)
    )
    pool = [window for pair in pairs for window in pair]
    steps = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "read", "twins", "learn"]),
                st.integers(0, VIEWS - 1),
                st.integers(0, len(pool) - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    beta = data.draw(st.sampled_from(BETAS))

    reads = GAReads.of(views[0], beta)
    asked = 0
    for kind, k, w in steps:
        view, twin = views[k], twins[k]
        if kind == "learn":  # a lagging view catches up by one block
            for block in blocks:
                if block.block_id not in view and block.parent in view:
                    view.add(block)
                    twin.add(block)
                    break
            continue
        for window in pairs[w % len(pairs)] if kind == "twins" else [pool[w]]:
            shared, private = GradedAgreement(view, beta), GradedAgreement(twin, beta)
            assert shared.reads is reads and private.reads is not reads
            record(shared, window)
            record(private, window)
            assert shared.longest(0, 0) == private.longest(0, 0)
            asked += 1
    assert reads.stats["computed"] + reads.stats["shared"] == asked
    assert chain.scratch("ga_reads") == {beta: reads}


def test_a_read_is_shared_only_between_views_that_tally_the_same_votes():
    """A view that has not learnt a voted tip tallies without it, so it
    computes its own read; one that has borrows the first."""
    chain, blocks = forked_chain()
    ahead, caught_up, lagging = chain.view(), chain.view(), chain.view()
    for view in (ahead, caught_up):
        for block in blocks[:7]:
            view.add(block)
    for block in blocks[:6]:
        lagging.add(block)
    reads = []
    for view in (ahead, caught_up, lagging):
        ga = GradedAgreement(view)
        for pid in range(6):
            ga.votes.record(pid, 0, blocks[6].block_id if pid < 5 else blocks[5].block_id)
        reads.append(ga.longest(0, 0))
    assert reads[0] is reads[1]
    assert reads[0] == (6, blocks[6].block_id, blocks[6].block_id, 5)
    assert reads[2] == (1, blocks[5].block_id, blocks[5].block_id, 1)
    assert ga.reads.stats == {"computed": 2, "shared": 1}


def test_a_private_tree_and_each_beta_get_their_own_reads():
    chain = SharedChain()
    view = chain.view()
    third = GradedAgreement(view).reads
    assert GradedAgreement(chain.view()).reads is third
    assert GradedAgreement(view, Fraction(1, 4)).reads is not third
    tree = BlockTree([genesis_block()])
    assert GradedAgreement(tree).reads is not GradedAgreement(tree).reads
