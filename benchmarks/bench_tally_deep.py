"""E9 — deep-chain GA tally with the incremental prefix-count tally.

Consecutive rounds tally nearly the same vote set, so the indexed chain
core holds a :class:`~repro.chain.tally.PrefixTally` across rounds:
each round pays only for the votes that actually moved (count updates
along the old-tip→new-tip path, found via the O(log d) LCA), and
grading is a scan of the counted nodes.

This bench replays fixed per-round vote windows at the acceptance
configuration (n = 200 voters, chain depth ≥ 500) and reports the
tally seconds.  Output correctness is tier-1's job — the brute-force
recounts in ``tests/chain/test_tree_index.py::naive_prefix_counts`` and
``tests/protocols/test_tally_properties.py`` are the spec.

The wall clock is gated by ``check_trend.py`` against the committed
``BENCH_tally_deep.json``.
"""

from __future__ import annotations

import time

from repro.chain.block import Block, genesis_block
from repro.chain.tally import PrefixTally
from repro.chain.tree import BlockTree

BENCH_CONFIG = {
    "n": 200,
    "depth": 520,
    "rounds": 40,
    "fork_voters": 24,
    "stagger": 48,
    "repeats": 5,
}


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


def build_workload():
    """The tree plus one vote window per round.

    The majority tracks the main chain's advancing tip, staggered over
    many distinct blocks (an η-window over a churning network tallies
    the latest votes of processes at many different positions, not one
    agreed tip); a minority camps on a fork that split off near the
    tip.  Per-round deltas therefore exercise both short moves along
    the chain and LCA moves across the fork.
    """
    n, depth, rounds = BENCH_CONFIG["n"], BENCH_CONFIG["depth"], BENCH_CONFIG["rounds"]
    fork_voters, stagger = BENCH_CONFIG["fork_voters"], BENCH_CONFIG["stagger"]
    tree = BlockTree([genesis_block()])
    main = build_chain(tree, genesis_block().block_id, depth + rounds, salt=0)
    fork = build_chain(tree, main[depth - 40], rounds, salt=1)

    windows = []
    for r in range(rounds):
        votes = {}
        for pid in range(n - fork_voters):
            votes[pid] = main[depth + r - (pid % stagger)]
        for j, pid in enumerate(range(n - fork_voters, n)):
            votes[pid] = fork[min(r + (j % 12), len(fork) - 1)]
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


def test_deep_chain_tally(record, bench_json):
    from repro.chain.tally import DEFAULT_BETA

    n, depth, rounds = BENCH_CONFIG["n"], BENCH_CONFIG["depth"], BENCH_CONFIG["rounds"]
    repeats = BENCH_CONFIG["repeats"]
    tree, windows = build_workload()

    samples = []
    for _ in range(repeats):
        seconds, outputs = replay_incremental(tree, windows, DEFAULT_BETA)
        samples.append(seconds)
        # Every round grades its whole window, and the main chain holds
        # a grade-1 quorum throughout (the fork is a 12% minority).
        assert all(out.m == n and out.grade1 for out in outputs)

    best = min(samples)
    record(
        "\n".join(
            [
                f"deep-chain GA tally, n={n}, depth={depth}, rounds={rounds} (best of {repeats}):",
                f"  incremental tally  : {best * 1e3:8.1f} ms",
                f"  per-round tally    : {best / rounds * 1e6:8.1f} us",
            ]
        )
    )
    bench_json(samples)
