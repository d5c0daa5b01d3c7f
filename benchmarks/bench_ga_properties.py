"""E8 — Lemma 1 scoreboard: extended-GA properties over sampled instances.

Samples hundreds of one-shot extended-GA instances under randomized
trees, inputs, initial sets, Byzantine voters, and (for clique validity)
fully adversarial delivery, then scores each Definition 4 property plus
clique validity.  All premised instances must satisfy all properties —
the empirical counterpart of the Lemma 1 proof.
"""

import random

from repro.analysis import check_clique_validity, check_ga_properties, format_table
from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.tree import BlockTree
from repro.core.extended_ga import ExtendedGAInstance, InitialVote


PROPERTIES = (
    "graded_consistency",
    "integrity",
    "validity",
    "uniqueness",
    "bounded_divergence",
)


def random_tree(rng: random.Random) -> tuple[BlockTree, list]:
    tree = BlockTree([genesis_block()])
    nodes = [genesis_block().block_id]
    for i in range(rng.randrange(2, 10)):
        parent = rng.choice(nodes)
        block = Block(parent=parent, proposer=0, view=i + 1, salt=i)
        tree.add(block)
        nodes.append(block.block_id)
    return tree, nodes + [GENESIS_TIP]


def sample_instance(rng: random.Random) -> dict:
    """One synchronous instance satisfying |H| > 2/3·|O ∪ P0|."""
    tree, tips = random_tree(rng)
    h = rng.randrange(3, 9)
    extras = rng.randrange(0, (h - 1) // 2 + 1)
    byz = rng.randrange(0, extras + 1)
    sleepers = extras - byz
    honest = list(range(h))
    byz_ids = list(range(h, h + byz))
    sleeper_ids = list(range(h + byz, h + extras))

    inputs = {pid: rng.choice(tips) for pid in honest}
    byz_votes = {pid: rng.choice(tips) for pid in byz_ids}

    outputs = {}
    for receiver in honest:
        m0 = [
            InitialVote(sender=pid, round=0, tip=rng.choice(tips))
            for pid in byz_ids + sleeper_ids
            if rng.random() < 0.7
        ]
        instance = ExtendedGAInstance(tree, m0)
        for pid, tip in {**inputs, **byz_votes}.items():
            instance.add_round_vote(pid, tip)
        outputs[receiver] = instance.output()
    report = check_ga_properties(tree, inputs, outputs)
    return {prop: getattr(report, prop) for prop in PROPERTIES}


def sample_clique_instance(rng: random.Random) -> bool:
    """One asynchronous clique-validity instance (premises constructed)."""
    tree, tips = random_tree(rng)
    lam = rng.choice(tips)
    extensions = [tip for tip in tips if tree.is_prefix(lam, tip)]
    clique_size = rng.randrange(3, 9)
    outsiders = rng.randrange(0, (clique_size - 1) // 2 + 1)
    clique = list(range(clique_size))
    outsider_ids = list(range(clique_size, clique_size + outsiders))

    senders = [pid for pid in clique if rng.random() < 0.7]
    fresh = {pid: rng.choice(extensions) for pid in senders}
    outsider_votes = {pid: rng.choice(tips) for pid in outsider_ids}

    outputs = {}
    for receiver in clique:
        m0 = [InitialVote(sender=pid, round=0, tip=rng.choice(extensions)) for pid in clique]
        m0 += [
            InitialVote(sender=pid, round=0, tip=rng.choice(tips))
            for pid in outsider_ids
            if rng.random() < 0.5
        ]
        instance = ExtendedGAInstance(tree, m0)
        for pid, tip in fresh.items():
            if rng.random() < 0.6:  # adversarial partial delivery
                instance.add_round_vote(pid, tip)
        for pid, tip in outsider_votes.items():
            if rng.random() < 0.6:
                instance.add_round_vote(pid, tip)
        outputs[receiver] = instance.output()
    return check_clique_validity(tree, lam, frozenset(clique), outputs)


def test_ga_properties(record):
    def experiment():
        rng = random.Random(2024)
        tallies = {prop: 0 for prop in PROPERTIES}
        samples = 300
        for _ in range(samples):
            result = sample_instance(rng)
            for prop in PROPERTIES:
                tallies[prop] += result[prop]
        clique_samples = 300
        clique_ok = sum(sample_clique_instance(rng) for _ in range(clique_samples))
        return tallies, samples, clique_ok, clique_samples

    tallies, samples, clique_ok, clique_samples = experiment()
    rows = [[prop.replace("_", " "), f"{tallies[prop]}/{samples}", "synchronous"] for prop in PROPERTIES]
    rows.append(["clique validity", f"{clique_ok}/{clique_samples}", "asynchronous"])
    record(
        format_table(
            ["property", "instances satisfied", "network"],
            rows,
            title="E8: Lemma 1 property scoreboard on sampled extended-GA instances",
        )
    )

    for prop in PROPERTIES:
        assert tallies[prop] == samples, prop
    assert clique_ok == clique_samples
