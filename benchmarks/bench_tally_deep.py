"""E9 — deep-chain GA tally with the incremental prefix-count tally.

Consecutive rounds tally nearly the same vote set, so the indexed chain
core holds a :class:`~repro.chain.tally.PrefixTally` across rounds:
each round pays once per *distinct* (old tip → new tip) transition
(one O(log d) LCA, one weighted adjustment of the path between the
tips), and grading is a scan of the counted nodes.

This bench replays fixed per-round vote windows at the acceptance
configuration (n = 200 voters, chain depth ≥ 500) and reports the
tally seconds, for two shapes of window: *staggered* (an η-window over
a churning network: voters at 48 + 12 distinct positions, so as many
distinct transitions per round) and *converged* (what the protocol
produces under synchrony: everyone advances tip → child each round, in
two camps, so two transitions per round).  Every round's output is
checked against a from-scratch tally of the same window; the
brute-force recounts in ``tests/chain/test_tree_index.py`` and
``tests/protocols/test_tally_properties.py`` remain the spec.

The wall clock is gated by ``check_trend.py`` against the committed
``BENCH_tally_deep.json``.
"""

from __future__ import annotations

import time

from repro.chain.block import Block, genesis_block
from repro.chain.tally import DEFAULT_BETA, PrefixTally
from repro.chain.tree import BlockTree

BENCH_CONFIG = {
    "n": 200,
    "depth": 520,
    "rounds": 40,
    "fork_voters": 24,
    "stagger": 48,
    "repeats": 5,
}
#: Distinct positions of the staggered fork camp.
FORK_STAGGER = 12


# ----------------------------------------------------------------------
# Workload: a deep chain, a minority fork, and slowly advancing votes
# ----------------------------------------------------------------------
def build_chain(tree, parent, length, salt):
    ids = []
    for i in range(length):
        block = Block(parent=parent, proposer=i % 7, view=i + 1, salt=salt)
        tree.add(block)
        ids.append(block.block_id)
        parent = block.block_id
    return ids


def build_workload(stagger, fork_stagger):
    """The tree plus one vote window per round.

    The majority tracks the main chain's advancing tip, staggered over
    ``stagger`` distinct blocks (an η-window over a churning network
    tallies the latest votes of processes at many different positions;
    ``stagger = 1`` is the agreed tip of a synchronous run); a minority
    camps on a fork that split off near the tip, over ``fork_stagger``
    positions.  Per-round deltas therefore exercise both short moves
    along the chain and LCA moves across the fork.
    """
    n, depth, rounds = BENCH_CONFIG["n"], BENCH_CONFIG["depth"], BENCH_CONFIG["rounds"]
    fork_voters = BENCH_CONFIG["fork_voters"]
    tree = BlockTree([genesis_block()])
    main = build_chain(tree, genesis_block().block_id, depth + rounds, salt=0)
    fork = build_chain(tree, main[depth - 40], rounds, salt=1)

    windows = []
    for r in range(rounds):
        votes = {}
        for pid in range(n - fork_voters):
            votes[pid] = main[depth + r - (pid % stagger)]
        for j, pid in enumerate(range(n - fork_voters, n)):
            votes[pid] = fork[min(r + (j % fork_stagger), len(fork) - 1)]
        windows.append(votes)
    return tree, windows


def replay_incremental(tree, windows, beta):
    tally = PrefixTally(tree)
    started = time.perf_counter()
    outputs = []
    for votes in windows:
        tally.set_votes(votes)
        outputs.append(tally.grade(beta))
    return time.perf_counter() - started, outputs


def measure(label, stagger, fork_stagger, record, bench_json):
    n, depth, rounds = BENCH_CONFIG["n"], BENCH_CONFIG["depth"], BENCH_CONFIG["rounds"]
    repeats = BENCH_CONFIG["repeats"]
    tree, windows = build_workload(stagger, fork_stagger)

    samples = []
    for _ in range(repeats):
        seconds, outputs = replay_incremental(tree, windows, DEFAULT_BETA)
        samples.append(seconds)
        # Every round grades its whole window, and the main chain holds
        # a grade-1 quorum throughout (the fork is a 12% minority).
        assert all(out.m == n and out.grade1 for out in outputs)
    for votes, output in zip(windows, outputs):
        assert output == PrefixTally(tree, votes).grade(DEFAULT_BETA)

    best = min(samples)
    record(
        "\n".join(
            [
                f"deep-chain GA tally, {label}, n={n}, depth={depth}, rounds={rounds} "
                f"(best of {repeats}):",
                f"  incremental tally  : {best * 1e3:8.1f} ms",
                f"  per-round tally    : {best / rounds * 1e6:8.1f} us",
            ]
        )
    )
    bench_json(samples, config={**BENCH_CONFIG, "stagger": stagger})


def test_deep_chain_tally(record, bench_json):
    measure("staggered", BENCH_CONFIG["stagger"], FORK_STAGGER, record, bench_json)


def test_deep_chain_tally_converged(record, bench_json):
    measure("converged", 1, 1, record, bench_json)
