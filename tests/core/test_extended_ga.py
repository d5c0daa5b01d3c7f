"""Extended graded agreement (Figure 3): unit semantics + Lemma 1 properties.

Everything here samples :class:`ExtendedGAInstance`, which holds the
same :class:`GradedAgreement` a running ``SleepyTOBProcess`` holds —
the suite certifies the code the protocol runs, not a twin of it.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.ga_properties import check_clique_validity, check_ga_properties
from repro.chain.block import GENESIS_TIP
from repro.core.extended_ga import ExtendedGAInstance, GradedAgreement, InitialVote
from repro.protocols.graded_agreement import tally_votes
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.messages import make_vote

from tests.chain.test_properties import build_random_tree
from tests.conftest import extend

# ----------------------------------------------------------------------
# Unit semantics
# ----------------------------------------------------------------------


def test_empty_m0_reduces_to_figure2(tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(tree)
    votes = {pid: chain[0].block_id for pid in range(5)}
    for pid, tip in votes.items():
        instance.add_round_vote(pid, tip)
    assert instance.output() == tally_votes(tree, votes)


def test_fresh_votes_supersede_m0(tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(
        tree, [InitialVote(sender=0, round=2, tip=genesis.block_id)]
    )
    instance.add_round_vote(0, chain[0].block_id)
    assert instance.tallied_votes() == {0: chain[0].block_id}


def test_m0_used_when_sender_silent_in_round(tree, genesis):
    instance = ExtendedGAInstance(
        tree, [InitialVote(sender=0, round=2, tip=genesis.block_id)]
    )
    instance.add_round_vote(1, genesis.block_id)
    assert instance.tallied_votes() == {0: genesis.block_id, 1: genesis.block_id}


def test_m0_keeps_only_latest_round_per_sender(tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(
        tree,
        [
            InitialVote(sender=0, round=1, tip=genesis.block_id),
            InitialVote(sender=0, round=3, tip=chain[0].block_id),
            InitialVote(sender=0, round=2, tip=genesis.block_id),
        ],
    )
    assert instance.tallied_votes() == {0: chain[0].block_id}


def test_equivocation_inside_m0_discards_sender(tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(
        tree,
        [
            InitialVote(sender=0, round=3, tip=genesis.block_id),
            InitialVote(sender=0, round=3, tip=chain[0].block_id),
        ],
    )
    assert instance.tallied_votes() == {}
    # ... but the sender can still contribute a clean fresh vote.
    instance.add_round_vote(0, chain[0].block_id)
    assert instance.tallied_votes() == {0: chain[0].block_id}


def test_fresh_equivocation_discards_sender_and_their_m0(tree, genesis):
    """Figure 3: M₀ messages are dropped when the sender voted in round r —
    even if that fresh vote turns out to be an equivocation."""
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(
        tree, [InitialVote(sender=0, round=2, tip=genesis.block_id)]
    )
    instance.add_round_vote(0, chain[0].block_id)
    instance.add_round_vote(0, genesis.block_id)
    assert instance.tallied_votes() == {}


def test_unknown_tips_excluded_from_tally(tree):
    instance = ExtendedGAInstance(tree, [InitialVote(sender=0, round=1, tip="ff" * 32)])
    instance.add_round_vote(1, "ee" * 32)
    assert instance.tallied_votes() == {}


def test_m0_equivocation_at_older_round_superseded_by_later_m0(tree, genesis):
    chain = extend(tree, genesis.block_id, 1)
    instance = ExtendedGAInstance(
        tree,
        [
            InitialVote(sender=0, round=2, tip=genesis.block_id),
            InitialVote(sender=0, round=2, tip=chain[0].block_id),  # equivocation at 2
            InitialVote(sender=0, round=4, tip=chain[0].block_id),  # clean later vote
        ],
    )
    assert instance.tallied_votes() == {0: chain[0].block_id}


def test_m0_vote_must_precede_the_ga_round(tree, genesis):
    with pytest.raises(ValueError, match="precede"):
        ExtendedGAInstance(
            tree, [InitialVote(sender=0, round=3, tip=genesis.block_id)], ga_round=3
        )


def test_the_suite_certifies_the_ga_the_protocol_runs(registry, verifier, genesis):
    """One class: what the samplers build is what ``SleepyTOBProcess``
    holds, and a process fed the same ``M₀`` + round votes as signed
    messages grades them identically."""
    g, eta = 6, 4
    process = SleepyTOBProcess(0, registry.secret_key(0), verifier, eta=eta)
    assert type(process._ga) is type(ExtendedGAInstance(process.tree).ga) is GradedAgreement

    chain = extend(process.tree, genesis.block_id, 2)
    a, b = chain[0].block_id, chain[1].block_id
    m0 = [
        InitialVote(sender=1, round=3, tip=a),
        InitialVote(sender=1, round=5, tip=b),  # supersedes round 3
        InitialVote(sender=2, round=4, tip=a),
        InitialVote(sender=3, round=4, tip=a),
        InitialVote(sender=3, round=4, tip=b),  # equivocation inside M₀
        InitialVote(sender=4, round=2, tip=b),  # superseded by a round vote
        InitialVote(sender=5, round=5, tip="ff" * 32),  # uninterpretable
    ]
    round_votes = {4: a, 6: b, 7: genesis.block_id}
    instance = ExtendedGAInstance(process.tree, m0, ga_round=g)
    for sender, tip in round_votes.items():
        instance.add_round_vote(sender, tip)

    def signed(sender, round_number, tip):
        return make_vote(registry, registry.secret_key(sender), round_number, tip)

    messages = [signed(v.sender, v.round, v.tip) for v in m0]
    messages += [signed(sender, g, tip) for sender, tip in round_votes.items()]
    process.receive_batch(g, verifier.batch(messages))
    assert process._ga_output(g) == instance.output()
    assert instance.tallied_votes() == {1: b, 2: a, 4: a, 6: b, 7: genesis.block_id}


# ----------------------------------------------------------------------
# Lemma 1: the five Definition 4 properties under synchrony
# ----------------------------------------------------------------------

tree_structures = st.lists(st.integers(min_value=0, max_value=1_000), min_size=0, max_size=10)


@given(tree_structures, st.data())
@settings(max_examples=150, deadline=None)
def test_lemma1_definition4_properties_hold_under_synchrony(structure, data):
    """Random extended-GA instances satisfy Definition 4 whenever
    |H_r| > 2/3·|O_r ∪ P₀| (the Lemma 1 assumption)."""
    tree, nodes = build_random_tree(structure)
    universe = nodes + [GENESIS_TIP]

    h = data.draw(st.integers(min_value=3, max_value=8), label="honest")
    extras = data.draw(st.integers(min_value=0, max_value=(h - 1) // 2), label="extras")
    byz = data.draw(st.integers(min_value=0, max_value=extras), label="byzantine")
    sleepers = extras - byz
    assume(3 * h > 2 * (h + extras))  # |H_r| > 2/3·|O_r ∪ P₀|

    honest_ids = list(range(h))
    byz_ids = list(range(h, h + byz))
    sleeper_ids = list(range(h + byz, h + extras))

    honest_inputs = {pid: data.draw(st.sampled_from(universe), label=f"input{pid}") for pid in honest_ids}
    # Byzantine fresh votes: multicast under synchrony, hence identical
    # for every receiver (equivocation would be discarded by everyone).
    byz_votes = {pid: data.draw(st.sampled_from(universe), label=f"byz{pid}") for pid in byz_ids}

    outputs = {}
    for receiver in honest_ids:
        m0 = []
        for sender in byz_ids + sleeper_ids:
            if data.draw(st.booleans(), label=f"m0has{receiver}:{sender}"):
                tip = data.draw(st.sampled_from(universe), label=f"m0tip{receiver}:{sender}")
                m0.append(InitialVote(sender=sender, round=0, tip=tip))
        instance = ExtendedGAInstance(tree, m0)
        for pid, tip in honest_inputs.items():
            instance.add_round_vote(pid, tip)
        for pid, tip in byz_votes.items():
            instance.add_round_vote(pid, tip)
        outputs[receiver] = instance.output()

    report = check_ga_properties(tree, honest_inputs, outputs)
    assert report.ok, report.failures


@given(tree_structures, st.data())
@settings(max_examples=150, deadline=None)
def test_lemma1_clique_validity_holds_even_under_asynchrony(structure, data):
    """Clique validity: with a clique H' voting extensions of Λ and
    |H'| > 2/3·|O_r ∪ P₀|, every clique member outputs (Λ, 1) no matter
    what the adversary delivers."""
    tree, nodes = build_random_tree(structure)
    universe = nodes + [GENESIS_TIP]

    lam = data.draw(st.sampled_from(universe), label="lambda")
    extensions = [tip for tip in universe if tree.is_prefix(lam, tip)]

    clique_size = data.draw(st.integers(min_value=3, max_value=8), label="clique")
    outsiders = data.draw(st.integers(min_value=0, max_value=(clique_size - 1) // 2), label="out")
    assume(3 * clique_size > 2 * (clique_size + outsiders))

    clique = list(range(clique_size))
    outsider_ids = list(range(clique_size, clique_size + outsiders))

    # Fresh round votes of clique members: extensions of Λ; a random
    # subset of the clique is awake in the send phase.
    senders = [pid for pid in clique if data.draw(st.booleans(), label=f"awake{pid}")]
    fresh = {pid: data.draw(st.sampled_from(extensions), label=f"fresh{pid}") for pid in senders}
    outsider_votes = {
        pid: data.draw(st.sampled_from(universe), label=f"byzvote{pid}") for pid in outsider_ids
    }

    outputs = {}
    for receiver in clique:
        # Premise: M₀ holds a Λ-extension vote from *every* clique member.
        m0 = [
            InitialVote(
                sender=pid,
                round=0,
                tip=data.draw(st.sampled_from(extensions), label=f"m0{receiver}:{pid}"),
            )
            for pid in clique
        ]
        # Plus arbitrary adversarial M₀ entries from outsiders.
        for pid in outsider_ids:
            if data.draw(st.booleans(), label=f"m0out{receiver}:{pid}"):
                m0.append(
                    InitialVote(
                        sender=pid,
                        round=0,
                        tip=data.draw(st.sampled_from(universe), label=f"m0outtip{receiver}:{pid}"),
                    )
                )
        instance = ExtendedGAInstance(tree, m0)
        # Asynchrony: the adversary delivers an arbitrary subset of the
        # fresh clique votes and any outsider votes it likes.
        for pid, tip in fresh.items():
            if data.draw(st.booleans(), label=f"deliver{receiver}:{pid}"):
                instance.add_round_vote(pid, tip)
        for pid, tip in outsider_votes.items():
            if data.draw(st.booleans(), label=f"deliverout{receiver}:{pid}"):
                instance.add_round_vote(pid, tip)
        outputs[receiver] = instance.output()

    assert check_clique_validity(tree, lam, frozenset(clique), outputs)
