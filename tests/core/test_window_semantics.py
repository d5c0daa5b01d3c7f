"""White-box window semantics of the resilient process.

Pins the subtle interactions between the expiration window, block
availability, and Byzantine round-tag games that the coarser end-to-end
tests cannot isolate.
"""

import pytest

from repro.chain.block import Block, genesis_block
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.messages import make_propose, make_vote


@pytest.fixture
def process(registry, verifier):
    return SleepyTOBProcess(0, registry.secret_key(0), verifier, eta=4)


def vote(registry, pid, round_number, tip):
    return make_vote(registry, registry.secret_key(pid), round_number, tip)


def propose(registry, pid, round_number, view, block):
    return make_propose(registry, registry.secret_key(pid), round_number, view, block)


def test_orphan_votes_count_once_the_block_arrives(registry, process):
    """A vote for a then-unknown block is retained and starts counting
    as soon as the block is learned — crucial during asynchrony, when
    votes and blocks may arrive in any order."""
    block = Block(parent=genesis_block().block_id, proposer=1, view=1)
    votes = [vote(registry, pid, 3, block.block_id) for pid in range(1, 4)]
    process.receive(3, votes)
    # Block unknown: the tally sees nothing.
    assert process._ga_output(3).m == 0
    process.receive(4, [propose(registry, 1, 4, 2, block)])
    output = process._ga_output(4)  # window [0, 4] still holds the votes
    assert output.m == 3
    assert output.has_grade1(block.block_id)


def test_window_excludes_expired_votes(registry, process):
    g = genesis_block().block_id
    process.receive(2, [vote(registry, 1, 2, g)])
    assert process._ga_output(6).m == 1  # window [2, 6]: included
    assert process._ga_output(7).m == 0  # window [3, 7]: expired


def test_latest_vote_supersedes_older_one(registry, process, tree, genesis):
    child = Block(parent=genesis.block_id, proposer=1, view=1)
    process.receive(2, [propose(registry, 1, 2, 1, child)])
    process.receive(3, [vote(registry, 1, 3, genesis.block_id)])
    process.receive(5, [vote(registry, 1, 5, child.block_id)])
    output = process._ga_output(6)
    assert output.m == 1
    assert output.has_grade1(child.block_id)  # only the round-5 vote counts


def test_backdated_votes_count_at_their_tagged_round(registry, process):
    """A Byzantine sender back-dating its tag concedes freshness: any
    later honest-tagged vote from it supersedes the back-dated one, and
    the back-dated tag expires earlier."""
    g = genesis_block().block_id
    process.receive(6, [vote(registry, 1, 2, g)])  # sent at 6, tagged 2
    assert process._ga_output(6).m == 1
    assert process._ga_output(7).m == 0  # expired by tag, not send time


def test_future_tagged_votes_invisible_until_reached(registry, process):
    g = genesis_block().block_id
    process.receive(3, [vote(registry, 1, 9, g)])
    assert process._ga_output(5).m == 0  # window [1, 5]: tag 9 is ahead
    assert process._ga_output(9).m == 1  # window [5, 9]: now visible


def test_vote_window_shape(registry, process):
    """The GA of round g tallies rounds [g − η, g], clamped at round 0."""
    g = genesis_block().block_id
    process.receive(0, [vote(registry, 1, 0, g)])
    assert process._ga_output(2).m == 1  # window [0, 2]
    tagged = {1: 5, 2: 6, 3: 10, 4: 11}
    process.receive(6, [vote(registry, pid, r, g) for pid, r in tagged.items()])
    assert process._ga.tallied_votes(6, 10) == {2: g, 3: g}
    assert process._ga_output(10).m == 2  # window [6, 10]: tags 5 and 11 fall outside
