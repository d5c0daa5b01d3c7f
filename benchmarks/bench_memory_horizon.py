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

Run it directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_memory_horizon.py -q -s
"""

from __future__ import annotations

import tracemalloc

from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec

N, ETA, SEED = 12, 4, 3
CHECKPOINTS = (250, 1000)
#: Live-total cap at 1,000 rounds: 9.6 MiB measured, 20.6 MiB while the
#: bus kept every message.
MAX_LIVE_BYTES = 12 * 2**20


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
