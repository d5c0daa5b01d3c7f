"""One-shot GA instances driven through the round simulator.

Runs Figure 2's primitive exactly as the paper states it — one send
phase, one receive phase, participation changing between the two — and
checks Definition 4 on the outputs.
"""

import random

from repro.analysis.ga_properties import check_ga_properties
from repro.attacks import AttackScript, ScriptedAdversary, corrupt, phase, vote_for
from repro.chain.block import GENESIS_TIP, Block, genesis_block
from repro.chain.tree import BlockTree
from repro.core.extended_ga import ExtendedGAProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import NetworkConditions
from repro.sleepy.adversary import NullAdversary
from repro.sleepy.schedule import TableSchedule
from repro.sleepy.simulator import Simulation


def shared_tree() -> tuple[BlockTree, list]:
    tree = BlockTree([genesis_block()])
    tips = [genesis_block().block_id]
    parent = genesis_block().block_id
    for i in range(3):
        block = Block(parent=parent, proposer=0, view=i + 1)
        tree.add(block)
        tips.append(block.block_id)
        parent = block.block_id
    fork = Block(parent=genesis_block().block_id, proposer=1, view=1, salt=7)
    tree.add(fork)
    tips.append(fork.block_id)
    return tree, tips


def run_ga_instance(n, inputs, awake_send, awake_receive, adversary=None, seed=0):
    """One GA at round 0: senders awake at round 0, receivers at round 1."""
    tree, _ = shared_tree()
    registry = KeyRegistry(n, run_seed=seed)
    schedule = TableSchedule(n, {0: awake_send, 1: awake_receive}, default=set(range(n)))

    def factory(pid, key, verifier):
        return ExtendedGAProcess(pid, key, verifier, tree, inputs.get(pid, GENESIS_TIP), ga_round=0)

    sim = Simulation(
        registry, schedule, adversary or NullAdversary(), NetworkConditions.synchronous(), factory
    )
    sim.run(2)
    outputs = {
        pid: process.output
        for pid, process in sim.processes.items()
        if process.output is not None and pid in awake_receive
    }
    return tree, outputs


def test_ga_definition4_with_changing_participation():
    tree, tips = shared_tree()
    rng = random.Random(1)
    for trial in range(20):
        n = rng.randrange(4, 10)
        inputs = {pid: rng.choice(tips) for pid in range(n)}
        awake_send = set(range(n))
        # Up to a third of senders go to sleep before the receive phase;
        # everyone else (including a late waker) receives.
        sleepers = set(rng.sample(sorted(awake_send), rng.randrange(0, n // 3 + 1)))
        awake_receive = awake_send - sleepers
        tree_t, outputs = run_ga_instance(n, inputs, awake_send, awake_receive, seed=trial)
        honest_inputs = {pid: inputs[pid] for pid in awake_send}
        report = check_ga_properties(tree_t, honest_inputs, outputs)
        assert report.ok, (trial, report.failures)


def test_ga_definition4_with_byzantine_voters():
    tree, tips = shared_tree()
    rng = random.Random(2)
    for trial in range(20):
        n = rng.randrange(6, 12)
        byz_count = (n - 1) // 3
        byz = set(range(n - byz_count, n))
        inputs = {pid: rng.choice(tips) for pid in range(n)}
        target = rng.choice(tips)
        adversary = ScriptedAdversary(
            AttackScript("one-tip", (phase(2, corrupt(*sorted(byz)), vote_for(target)),))
        )
        awake = set(range(n))
        tree_t, outputs = run_ga_instance(
            n, inputs, awake, awake, adversary=adversary, seed=100 + trial
        )
        honest_inputs = {pid: inputs[pid] for pid in awake - byz}
        honest_outputs = {pid: out for pid, out in outputs.items() if pid not in byz}
        report = check_ga_properties(tree_t, honest_inputs, honest_outputs)
        assert report.ok, (trial, report.failures)


def test_ga_m_counts_match_participation():
    tree, tips = shared_tree()
    n = 7
    inputs = {pid: tips[1] for pid in range(n)}
    _, outputs = run_ga_instance(n, inputs, set(range(n)), set(range(n)))
    assert all(out.m == n for out in outputs.values())
    _, outputs = run_ga_instance(n, inputs, set(range(4)), set(range(n)))
    assert all(out.m == 4 for out in outputs.values())
