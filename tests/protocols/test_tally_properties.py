"""Property-based laws of the GA tally (Figure 2's grading function)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import GENESIS_TIP
from repro.core.extended_ga import GradedAgreement
from repro.protocols.graded_agreement import tally_votes

from tests.chain.test_properties import build_random_tree

tree_structures = st.lists(st.integers(min_value=0, max_value=1_000), min_size=0, max_size=12)
betas = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])


def draw_votes(data, universe, max_voters=12):
    count = data.draw(st.integers(min_value=0, max_value=max_voters), label="voters")
    return {pid: data.draw(st.sampled_from(universe), label=f"vote{pid}") for pid in range(count)}


@given(tree_structures, betas, st.data())
@settings(max_examples=150)
def test_tally_matches_brute_force_reference(structure, beta, data):
    tree, nodes = build_random_tree(structure)
    universe = nodes + [GENESIS_TIP]
    votes = draw_votes(data, universe)
    output = tally_votes(tree, votes, beta)
    # The running GA, fed the same votes in one round, grades identically.
    ga = GradedAgreement(tree, beta)
    ga.votes.record_table({0: votes})
    assert ga.output(0, 0) == output

    m = len(votes)
    assert output.m == m
    for candidate in universe:
        count = sum(1 for tip in votes.values() if tree.is_prefix(candidate, tip))
        num, den = beta.numerator, beta.denominator
        expect_grade1 = den * count > (den - num) * m
        expect_grade0 = not expect_grade1 and den * count > num * m
        assert (candidate in output.grade1) == expect_grade1, candidate
        assert (candidate in output.grade0) == expect_grade0, candidate


@given(tree_structures, betas, st.data())
@settings(max_examples=120)
def test_grade1_outputs_form_a_chain(structure, beta, data):
    """β ≤ 1/2 ⇒ two grade-1 logs can never conflict (each needs more
    than half of the votes)."""
    tree, nodes = build_random_tree(structure)
    votes = draw_votes(data, nodes + [GENESIS_TIP])
    output = tally_votes(tree, votes, beta)
    for a in output.grade1:
        for b in output.grade1:
            assert tree.compatible(a, b)


@given(tree_structures, betas, st.data())
@settings(max_examples=120)
def test_grades_are_disjoint_and_closed_under_prefix(structure, beta, data):
    tree, nodes = build_random_tree(structure)
    votes = draw_votes(data, nodes + [GENESIS_TIP])
    output = tally_votes(tree, votes, beta)
    assert not set(output.grade1) & set(output.grade0)
    # Prefixes of a grade-1 log have at least as many votes: grade 1 too.
    for tip in output.grade1:
        node = tip
        while node is not GENESIS_TIP:
            node = tree.parent(node)
            assert node in output.grade1


@given(tree_structures, st.data())
@settings(max_examples=120)
def test_adding_a_supporting_vote_never_demotes(structure, data):
    """Monotonicity: one extra vote for an extension of Λ cannot remove
    Λ from the graded outputs' union, nor demote it from grade 1."""
    tree, nodes = build_random_tree(structure)
    universe = nodes + [GENESIS_TIP]
    votes = draw_votes(data, universe, max_voters=9)
    target = data.draw(st.sampled_from(universe), label="target")
    before = tally_votes(tree, votes, Fraction(1, 3))

    new_pid = max(votes, default=-1) + 1
    votes_after = dict(votes)
    votes_after[new_pid] = target
    after = tally_votes(tree, votes_after, Fraction(1, 3))

    if before.has_grade1(target):
        # m grew by 1 and target's count grew by 1: still > 2m/3.
        assert after.has_grade1(target)
    if target in before.all_output():
        assert target in after.all_output()


@given(tree_structures, betas, st.data())
@settings(max_examples=100)
def test_tally_is_anonymous(structure, beta, data):
    """Votes are counted, not attributed: permuting voter ids is a no-op."""
    tree, nodes = build_random_tree(structure)
    votes = draw_votes(data, nodes + [GENESIS_TIP])
    permuted = {pid + 1000: tip for pid, tip in votes.items()}
    assert tally_votes(tree, votes, beta) == tally_votes(tree, permuted, beta)
