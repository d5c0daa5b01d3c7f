"""Bounded retention: a long run keeps a constant number of messages.

The expiration period η means no honest process can use a vote older
than its window, so nothing has to keep a message once no receiver can
still get it.  The simulator frees it at that point: the bus compacts
its log behind every receiver still able to receive, forgets a dedup
key η + 8 rounds after accepting it, and the verdict table follows the
bus.  This module runs the simulator at n = 12, η = 4, seed 3 with no
transactions and reads ``tracemalloc``'s live total after 250 and after
1,000 rounds.  It asserts the total at 1,000 rounds stays under a cap
and that the retained message counts — the bus log, its dedup keys and
the verdict table — are flat between the two points.

What still grows is not messages: the canonical tree, the trace, each
process's delivered ids and GA reads (README, "Memory").  Before the
bus forgot anything the two points read 5.0 and 20.6 MiB.

A second case runs at the scale of the end-to-end ``sim-steady``
workload — n = 50, η = 4, six 64-byte transactions a round, seed 5 —
and caps what a long run adds per 100 rounds, read between 200 and 400
rounds.  That growth is state the chain shares and each process once
held a copy of: 4.42 MiB per 100 rounds while every process kept its
own delivered-id set, proposal tables and ``(ga_round, read)`` pairs
and the batch memo kept 32 rounds of votes; 2.85 MiB with the delivered
ids a depth on one decided index per chain, the tables adopted by
reference, the pairs interned per chain, the round records sharing one
participation set and the batch memo holding the round in progress.
What is left is the canonical tree (every proposal's block and its
skip pointers), the shared proposal order, the decided index and the
trace's decisions — README, "Memory", "What still grows".

Run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_memory_horizon.py -q -s
"""

from __future__ import annotations

import tracemalloc

from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.workloads.transactions import SubmissionRateWorkload

N, ETA, SEED = 12, 4, 3
CHECKPOINTS = (250, 1000)
#: Live-total cap at 1,000 rounds: 7.2 MiB measured (9.7 MiB before the
#: history the second case reads was held once per chain), 20.6 MiB
#: while the bus kept every message.
MAX_LIVE_BYTES = 12 * 2**20

STEADY_N, STEADY_TX, STEADY_SEED = 50, 6, 5
STEADY_CHECKPOINTS = (200, 400)
#: Growth cap per 100 rounds at n = 50: 2.85 MiB measured, 4.42 MiB
#: while each process kept its own copies (module docstring).
MAX_GROWTH_PER_100_ROUNDS = 3.5 * 2**20


def _retained(simulation) -> dict[str, int]:
    return {
        "bus log": simulation.bus.retained,
        "bus keys": simulation.bus.key_count,
        "verdicts": len(simulation.pipeline.interner),
    }


def test_memory_is_flat_past_the_horizon(record):
    spec = RunSpec(n=N, rounds=CHECKPOINTS[-1], protocol="resilient", eta=ETA, seed=SEED)
    tracemalloc.start()
    try:
        simulation = SimulationBackend().build(spec)
        points = []
        done = 0
        for rounds in CHECKPOINTS:
            simulation.run(rounds - done)
            done = rounds
            live = tracemalloc.get_traced_memory()[0]
            points.append((rounds, live, _retained(simulation), simulation.bus.total_published))
    finally:
        tracemalloc.stop()

    record(
        "retention (simulator, n=%d, eta=%d, seed=%d, no transactions)\n" % (N, ETA, SEED)
        + "\n".join(
            "  %5d rounds: live %.1f MiB, %d published; retained %s"
            % (rounds, live / 2**20, published, retained)
            for rounds, live, retained, published in points
        )
    )

    (_, _, early, _), (rounds, live, late, published) = points
    per_round = published / rounds
    for name, count in late.items():
        assert abs(count - early[name]) <= per_round, (name, early[name], count)
    assert live <= MAX_LIVE_BYTES, f"live total {live / 2**20:.1f} MiB over the cap"


def test_shared_history_grows_slowly_at_fifty_processes(record):
    traffic = SubmissionRateWorkload(STEADY_TX, seed=STEADY_SEED, payload_bytes=64)
    spec = RunSpec(
        n=STEADY_N,
        rounds=STEADY_CHECKPOINTS[-1],
        protocol="resilient",
        eta=ETA,
        transactions=traffic,
        seed=STEADY_SEED,
    )
    tracemalloc.start()
    try:
        simulation = SimulationBackend().build(spec)
        points = []
        done = 0
        for rounds in STEADY_CHECKPOINTS:
            simulation.run(rounds - done)
            done = rounds
            points.append((rounds, tracemalloc.get_traced_memory()[0]))
    finally:
        tracemalloc.stop()

    (early_rounds, early), (late_rounds, late) = points
    growth = (late - early) * 100 / (late_rounds - early_rounds)
    record(
        "shared history (simulator, n=%d, eta=%d, %d tx/round, seed=%d)\n"
        % (STEADY_N, ETA, STEADY_TX, STEADY_SEED)
        + "\n".join("  %5d rounds: live %.2f MiB" % (r, live / 2**20) for r, live in points)
        + "\n  growth: %.2f MiB per 100 rounds" % (growth / 2**20)
    )
    assert simulation.trace.decisions
    assert growth <= MAX_GROWTH_PER_100_ROUNDS, (
        f"live total grows {growth / 2**20:.2f} MiB per 100 rounds: per-process copies "
        f"of chain-shared history are back (2.85 shared, 4.42 copied)"
    )
