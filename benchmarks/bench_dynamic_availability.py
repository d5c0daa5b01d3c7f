"""E6 — dynamic availability: the chain grows at any participation level.

The paper's opening claim: dynamically available TOB protocols handle
"participants going offline or coming back online at any time — even
99% of them."  Measured: chain growth at sustained participation levels
from 100% down to a single awake process, plus the May-2023 Ethereum
outage replay (60% offline for 20 rounds).
"""

from repro.analysis import chain_growth_rate, check_safety, format_table
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import TableSchedule
from repro.workloads import ethereum_outage_scenario

N, ROUNDS = 100, 36


def sustained_level(level: float) -> dict:
    keep = max(1, int(level * N))
    # Drop to `keep` processes from round 8 onwards.
    schedule = TableSchedule(
        N, {r: set(range(keep)) for r in range(8, ROUNDS + 1)}, default=set(range(N))
    )
    trace = run_tob(
        TOBRunConfig(n=N, rounds=ROUNDS, protocol="resilient", eta=3, schedule=schedule)
    )
    return {
        "level": level,
        "awake": keep,
        "growth": chain_growth_rate(trace, start=12, end=ROUNDS - 1),
        "safe": check_safety(trace).ok,
    }


def test_dynamic_availability(record):
    def experiment():
        rows = [sustained_level(level) for level in (1.0, 0.5, 0.25, 0.10, 0.01)]
        outage = run_tob(ethereum_outage_scenario(n=50, start=10, duration=20, rounds=50))
        outage_growth = chain_growth_rate(outage, start=12, end=29)
        return rows, outage_growth, check_safety(outage).ok

    rows, outage_growth, outage_safe = experiment()
    table_rows = [[f"{r['level']:.0%}", r["awake"], r["growth"], r["safe"]] for r in rows]
    table_rows.append(["Ethereum outage (60% off)", 20, outage_growth, outage_safe])
    record(
        format_table(
            ["participation", "awake processes", "growth blocks/round", "safe"],
            table_rows,
            title=f"E6: chain growth under sustained participation drops (n={N})",
        )
    )

    for r in rows:
        assert r["safe"], r
        # Full cadence (≈0.5 blocks/round) at every level — even one
        # process alone keeps deciding its own proposals.
        assert r["growth"] >= 0.45, r
    assert outage_safe and outage_growth >= 0.45
