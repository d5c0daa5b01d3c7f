#!/usr/bin/env python3
"""A real-time deployment: rounds of Δ = 3δ over an asyncio gossip overlay.

Runs the η-expiration protocol on 8 nodes connected by a random
4-regular gossip network with seeded link latencies, then injects a
latency surge (a real asynchronous period: the network turns slow, not
lossy) and shows the protocol deciding straight through it.

Run:  python examples/gossip_deployment.py
"""

from repro.analysis import check_safety, decision_rounds, format_table
from repro.engine.conditions import NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec


def main() -> None:
    delta_s = 0.02  # 20 ms synchrony bound → 60 ms rounds
    ra, pi, factor = 7, 2, 25.0  # rounds 8-9: latency × 25 (≫ δ)
    config = RunSpec(
        n=8,
        rounds=20,
        protocol="resilient",
        eta=4,
        conditions=NetworkConditions.window(ra, pi, surge_factor=factor),
        seed=11,
    )
    result = DeploymentBackend(delta_s=delta_s).execute(config)
    trace = result.trace
    safety = check_safety(trace)

    print(
        format_table(
            ["metric", "value"],
            [
                ["nodes", config.n],
                ["δ (ms)", delta_s * 1000],
                ["round duration (ms)", 3 * delta_s * 1000],
                ["rounds run", config.rounds],
                ["latency surge", f"rounds {ra + 1}-{ra + pi} ×{factor:.0f}"],
                ["wall-clock (s)", result.wall_seconds],
                ["gossip first arrivals", result.extras["gossip"]["delivered"]],
                ["decisions", len(trace.decisions)],
                ["safety", safety.ok],
            ],
            title="Deployment summary",
        )
    )
    print()
    rounds = decision_rounds(trace)
    marks = ["*" if r in rounds else "." for r in range(config.rounds)]
    print("decision rounds:  " + " ".join(f"{r:>2}" for r in range(config.rounds)))
    print("                  " + "  ".join(marks))
    print()
    assert safety.ok
    print("Safe throughout the surge — on a real event loop, not a round model.")


if __name__ == "__main__":
    main()
