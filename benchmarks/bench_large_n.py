"""The large-n lane: one interned tree per run at n = 1000.

The sleepy model is most interesting when n is large and participation
is sparse and churning — exactly the regime a per-receiver
:class:`~repro.chain.tree.BlockTree` layout prices out of reach
(memory and tree maintenance scale O(n × chain)).  This bench runs a
full n = 1000 simulation under a seeded churn schedule (~29% awake at
equilibrium) on the simulator's one layout — a
:class:`~repro.chain.shared.SharedChain` per run, every receiver
holding a visibility view — ``REPEATS`` times, and prints wall-clock
seconds and the tracemalloc allocation peak.  That views and private
trees decide identically is pinned bit-for-bit by
``tests/engine/test_shared_equivalence`` and
``tests/chain/test_shared_chain.py``.

What is gated is what repeats exactly: the allocation peak against an
absolute cap, one signature check per published message, and no
content hash per message at all — a run hashes one id per block
built.  The seconds are printed, not gated; ``bench/`` compares time.

Run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_large_n.py -q -s
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import repro.crypto.hashing as hashing
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import RandomChurnSchedule

N, ROUNDS, PROTOCOL = 1000, 12, "mmr"

REPEATS = 3
#: Allocation cap of one run: 2x the 32.0 MiB measured (51.3 MiB while
#: every view kept its own leaf set), so n private trees would need many
#: times it, and state per view that grows with the chain has little room.
MAX_PEAK_BYTES = 64 * 2**20


def _spec() -> RunSpec:
    return RunSpec(
        n=N,
        rounds=ROUNDS,
        protocol=PROTOCOL,
        schedule=RandomChurnSchedule(
            N,
            0.1,
            wake_probability=0.04,
            min_awake=200,
            seed=0,
            initial_awake=frozenset(range(300)),
        ),
        seed=0,
    )


def _run() -> tuple[float, int, tuple[int, int, int, int]]:
    """One full run under tracemalloc; returns (wall seconds, peak bytes,
    (blocks, decisions, messages published, signature checks, proposals))."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        spec = _spec()
        simulation = SimulationBackend().build(spec)
        SimulationBackend.drive(simulation, spec)
        wall = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return wall, peak, (
        len(simulation.chain.tree),
        len(simulation.trace.decisions),
        simulation.bus.total_published,
        simulation.pipeline.stats["crypto_verifications"],
        sum(row.proposes_sent for row in simulation.trace.rounds),
    )


def test_large_n_interned_tree(record, monkeypatch):
    hashed = [0]
    original = hashing.hash_fields

    def counted(*fields):
        hashed[0] += 1
        return original(*fields)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    runs = [_run() for _ in range(REPEATS)]
    walls = [wall for wall, _, _ in runs]
    peak = max(peak for _, peak, _ in runs)
    # Seeded: every repeat builds the same chain and decides the same.
    assert len({counts for _, _, counts in runs}) == 1
    n_blocks, n_decisions, published, verified, proposals = runs[0][2]
    assert n_decisions > 0
    # A published message is verified once, however many processes
    # receive it, and never hashed: it is keyed by its content.  What a
    # run hashes is the id of the block each proposal built, and genesis.
    assert verified == published > 2 * proposals
    assert hashed[0] == REPEATS * (proposals + 1)

    record(
        "large-n lane (n=%d, rounds=%d, %s, churning sleepy schedule)\n"
        "  %d runs: %s s, peak %.1f MiB (cap %.0f MiB)\n"
        "  one interned tree, %d blocks; %d decisions"
        % (
            N,
            ROUNDS,
            PROTOCOL,
            REPEATS,
            " / ".join(f"{wall:.1f}" for wall in walls),
            peak / 2**20,
            MAX_PEAK_BYTES / 2**20,
            n_blocks,
            n_decisions,
        )
    )

    assert peak <= MAX_PEAK_BYTES, f"allocation peak {peak / 2**20:.1f} MiB over the cap"
