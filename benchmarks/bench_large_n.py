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
absolute cap, and one signature check and one content hash per
published message.  The seconds are printed, not gated; ``bench/``
compares time.

Run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_large_n.py -q -s
"""

from __future__ import annotations

import time
import tracemalloc

import repro.sleepy.messages as messages
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import RandomChurnSchedule

N, ROUNDS, PROTOCOL = 1000, 12, "mmr"

REPEATS = 3
#: Allocation cap of one run (77 MiB measured): n private trees would
#: need ~7x this, so a layout regression cannot hide under it.
MAX_PEAK_BYTES = 128 * 2**20


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
    (blocks, decisions, messages published, signature checks))."""
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
    )


def test_large_n_interned_tree(record, monkeypatch):
    digested = [0]
    original = messages.verification_digest

    def counted(message):
        digested[0] += 1
        return original(message)

    monkeypatch.setattr(messages, "verification_digest", counted)
    runs = [_run() for _ in range(REPEATS)]
    walls = [wall for wall, _, _ in runs]
    peak = max(peak for _, peak, _ in runs)
    # Seeded: every repeat builds the same chain and decides the same.
    assert len({counts for _, _, counts in runs}) == 1
    n_blocks, n_decisions, published, verified = runs[0][2]
    assert n_decisions > 0
    # A published message is verified once and hashed once, by the memo
    # the bus and the pipeline share, however many processes receive it.
    assert verified == published
    assert digested[0] == REPEATS * published

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
