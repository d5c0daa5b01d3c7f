"""The large-n lane: one interned tree per run at n = 1000.

The sleepy model is most interesting when n is large and participation
is sparse and churning — exactly the regime a per-receiver
:class:`~repro.chain.tree.BlockTree` layout prices out of reach
(memory and tree maintenance scale O(n × chain)).  This bench runs a
full n = 1000 simulation under a seeded churn schedule (~29% awake at
equilibrium) on the simulator's one layout — a
:class:`~repro.chain.shared.SharedChain` per run, every receiver
holding a visibility view — ``REPEATS`` times, and reports wall-clock
seconds and the tracemalloc allocation peak.  That views and private
trees decide identically is pinned bit-for-bit by
``tests/engine/test_shared_equivalence`` and
``tests/chain/test_shared_chain.py``.

The allocation peak is gated here against an absolute cap (tracemalloc
peaks are deterministic); the wall clock is gated by ``check_trend.py``
against the committed ``BENCH_large_n.json``.

Run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_large_n.py -q -s
"""

from __future__ import annotations

import time
import tracemalloc

from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import RandomChurnSchedule

BENCH_CONFIG = {
    "n": 1000,
    "rounds": 12,
    "protocol": "mmr",
    "churn_per_round": 0.1,
    "wake_probability": 0.04,
    "min_awake": 200,
    "initial_awake": 300,
    "seed": 0,
}

REPEATS = 3
#: Allocation cap of one run (85 MiB measured): n private trees would
#: need ~7x this, so a layout regression cannot hide under it.
MAX_PEAK_BYTES = 128 * 2**20


def _spec() -> RunSpec:
    c = BENCH_CONFIG
    return RunSpec(
        n=c["n"],
        rounds=c["rounds"],
        protocol=c["protocol"],
        schedule=RandomChurnSchedule(
            c["n"],
            c["churn_per_round"],
            wake_probability=c["wake_probability"],
            min_awake=c["min_awake"],
            seed=c["seed"],
            initial_awake=frozenset(range(c["initial_awake"])),
        ),
        seed=c["seed"],
    )


def _run() -> tuple[float, int, int, int]:
    """One full run; returns (wall seconds, peak bytes, blocks, decisions).

    The bench conftest keeps tracemalloc tracing around the whole test,
    so each run just resets the peak — never stop the tracer here.
    """
    if not tracemalloc.is_tracing():  # direct (non-pytest) invocation
        tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()
    spec = _spec()
    simulation = SimulationBackend().build(spec)
    SimulationBackend.drive(simulation, spec)
    wall = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    return wall, peak, len(simulation.chain.tree), len(simulation.trace.decisions)


def test_large_n_interned_tree(record, bench_json):
    runs = [_run() for _ in range(REPEATS)]
    walls = [wall for wall, _, _, _ in runs]
    peak = max(peak for _, peak, _, _ in runs)
    # Seeded: every repeat builds the same chain and decides the same.
    assert len({(blocks, decisions) for _, _, blocks, decisions in runs}) == 1
    _, _, n_blocks, n_decisions = runs[0]
    assert n_decisions > 0

    record(
        "large-n lane (n=%d, rounds=%d, %s, churning sleepy schedule)\n"
        "  %d runs: %s s, peak %.1f MiB (cap %.0f MiB)\n"
        "  one interned tree, %d blocks; %d decisions"
        % (
            BENCH_CONFIG["n"],
            BENCH_CONFIG["rounds"],
            BENCH_CONFIG["protocol"],
            REPEATS,
            " / ".join(f"{wall:.1f}" for wall in walls),
            peak / 2**20,
            MAX_PEAK_BYTES / 2**20,
            n_blocks,
            n_decisions,
        )
    )
    bench_json(walls, n_blocks=n_blocks)

    assert peak <= MAX_PEAK_BYTES, f"allocation peak {peak / 2**20:.1f} MiB over the cap"
