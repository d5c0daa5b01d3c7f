"""GA tally: exact thresholds, prefix counting, equivocation discard."""

from fractions import Fraction

import pytest

from repro.chain.block import GENESIS_TIP, genesis_block
from repro.core.extended_ga import GradedAgreement
from repro.protocols.graded_agreement import tally_votes
from repro.sleepy.messages import VerifiedBatch

from tests.conftest import extend


def select_current_round_votes(tree, vote_messages, round_number):
    """Figure 2's vote selection as the running GA does it: the window ``[r, r]``."""
    ga = GradedAgreement(tree)
    ga.votes.record_table(VerifiedBatch(vote_messages).vote_table())
    return ga.tallied_votes(round_number, round_number)


def test_empty_tally():
    from repro.chain.tree import BlockTree

    output = tally_votes(BlockTree([genesis_block()]), {})
    assert output.m == 0
    assert output.grade1 == () and output.grade0 == ()


def test_unanimous_votes_grade_one(tree, genesis):
    chain = extend(tree, genesis.block_id, 2)
    tip = chain[-1].block_id
    votes = {pid: tip for pid in range(9)}
    output = tally_votes(tree, votes)
    assert output.m == 9
    # The whole prefix chain gets grade 1, deepest last.
    assert output.grade1 == (GENESIS_TIP, genesis.block_id, chain[0].block_id, tip)
    assert output.grade0 == ()


def test_exact_two_thirds_boundary(tree, genesis):
    """> 2m/3 is strict: 6 of 9 is not enough, 7 of 9 is."""
    chain = extend(tree, genesis.block_id, 1)
    tip = chain[0].block_id
    votes = {pid: (tip if pid < 6 else GENESIS_TIP) for pid in range(9)}
    output = tally_votes(tree, votes)
    assert tip not in output.grade1  # 6 = 2·9/3 exactly: not strictly more
    assert tip in output.grade0
    votes[6] = tip  # now 7 > 6
    output = tally_votes(tree, votes)
    assert tip in output.grade1


def test_exact_one_third_boundary(tree, genesis):
    """> m/3 is strict: 3 of 9 is not output at all, 4 of 9 gets grade 0."""
    chain = extend(tree, genesis.block_id, 1)
    tip = chain[0].block_id
    votes = {pid: (tip if pid < 3 else GENESIS_TIP) for pid in range(9)}
    output = tally_votes(tree, votes)
    assert tip not in output.grade0 and tip not in output.grade1
    votes[3] = tip
    output = tally_votes(tree, votes)
    assert tip in output.grade0


def test_votes_count_for_prefixes(tree, genesis):
    left = extend(tree, genesis.block_id, 2, salt=1)
    right = extend(tree, genesis.block_id, 2, salt=2)
    # 5 votes on the left branch tip, 4 on the right: both extend genesis.
    votes = {pid: left[-1].block_id for pid in range(5)}
    votes |= {pid: right[-1].block_id for pid in range(5, 9)}
    output = tally_votes(tree, votes)
    assert genesis.block_id in output.grade1  # 9/9 votes via prefix counting
    assert left[-1].block_id in output.grade0  # 5 of 9: > m/3 but ≤ 2m/3
    assert right[-1].block_id in output.grade0  # 4 of 9
    assert left[-1].block_id not in output.grade1


def test_empty_log_always_grade_one_when_heard(tree, genesis):
    votes = {0: genesis.block_id}
    output = tally_votes(tree, votes)
    assert GENESIS_TIP in output.grade1


def test_parametric_beta_quarter(tree, genesis):
    """β = 1/4: grade 1 needs > 3m/4 (9 of 12 fails, 10 of 12 passes)."""
    chain = extend(tree, genesis.block_id, 1)
    tip = chain[0].block_id
    beta = Fraction(1, 4)
    votes = {pid: (tip if pid < 9 else GENESIS_TIP) for pid in range(12)}
    output = tally_votes(tree, votes, beta=beta)
    assert tip not in output.grade1 and tip in output.grade0
    votes[9] = tip
    output = tally_votes(tree, votes, beta=beta)
    assert tip in output.grade1
    # And grade 0 needs > m/4: exactly 3 of 12 is not enough.
    votes = {pid: (tip if pid < 3 else GENESIS_TIP) for pid in range(12)}
    output = tally_votes(tree, votes, beta=beta)
    assert tip not in output.grade0


def test_beta_validation(tree):
    with pytest.raises(ValueError, match="β"):
        tally_votes(tree, {0: GENESIS_TIP}, beta=Fraction(2, 3))
    with pytest.raises(ValueError, match="β"):
        tally_votes(tree, {0: GENESIS_TIP}, beta=Fraction(0))


def test_conflicting_grade1_impossible_structurally(tree, genesis):
    """Two conflicting logs can never both exceed 2m/3 with one vote each."""
    left = extend(tree, genesis.block_id, 1, salt=1)
    right = extend(tree, genesis.block_id, 1, salt=2)
    for split in range(10):
        votes = {pid: (left[0].block_id if pid < split else right[0].block_id) for pid in range(9)}
        output = tally_votes(tree, votes)
        grade1_deep = [t for t in output.grade1 if t is not GENESIS_TIP and t != genesis.block_id]
        assert len(grade1_deep) <= 1


def _vote(registry, pid, round_number, tip):
    from repro.sleepy.messages import make_vote

    return make_vote(registry, registry.secret_key(pid), round_number, tip)


def test_select_current_round_votes_filters_round(registry, tree, genesis):
    votes = [
        _vote(registry, 0, 5, genesis.block_id),
        _vote(registry, 1, 4, genesis.block_id),  # stale round: ignored
        _vote(registry, 2, 6, genesis.block_id),  # future round: ignored
    ]
    selected = select_current_round_votes(tree, votes, 5)
    assert selected == {0: genesis.block_id}


def test_select_current_round_votes_discards_equivocators(registry, tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    votes = [
        _vote(registry, 0, 5, genesis.block_id),
        _vote(registry, 0, 5, chain[0].block_id),  # equivocation
        _vote(registry, 0, 5, genesis.block_id),  # repeat after the fact
        _vote(registry, 1, 5, chain[0].block_id),
    ]
    selected = select_current_round_votes(tree, votes, 5)
    assert selected == {1: chain[0].block_id}


def test_select_current_round_votes_allows_duplicates(registry, tree, genesis):
    votes = [
        _vote(registry, 0, 5, genesis.block_id),
        _vote(registry, 0, 5, genesis.block_id),  # identical duplicate: fine
    ]
    selected = select_current_round_votes(tree, votes, 5)
    assert selected == {0: genesis.block_id}


def test_select_current_round_votes_drops_unknown_tips(registry, tree):
    votes = [_vote(registry, 0, 5, "ab" * 32)]
    assert select_current_round_votes(tree, votes, 5) == {}


def test_vote_for_empty_log_counts(registry, tree):
    votes = [_vote(registry, 0, 5, None)]
    selected = select_current_round_votes(tree, votes, 5)
    assert selected == {0: None}
    output = tally_votes(tree, selected)
    assert output.grade1 == (GENESIS_TIP,)
