"""E7 — the stall threshold: expiration makes churn a liveness resource.

Figure 1's caption: "At a drop-off rate of γ ≥ 1/3, the system may
stall even without failures."  §2.3 explains why: if a β fraction of the
last-η-rounds participants falls asleep, the awake cannot meet a 1 − β
quorum over all unexpired votes.

Demonstrated with a steep participation decline (60 → 15 over 5 rounds,
no Byzantine processes at all):

* the original MMR (η = 0, fully dynamic) sails through at full cadence;
* the η-expiration protocol stalls for ≈ η rounds — until the votes of
  the departed expire — and then resumes;
* a gentle decline (γ per window below the curve) causes no stall for
  either.

This is the trade-off the paper asks operators to price in (§3 step 1).
"""

from repro.analysis import check_safety, decision_rounds, format_table, stalls
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.workloads import RampSchedule

N, ROUNDS = 60, 44
DROP_START = 10


def run_decline(protocol: str, eta: int, length: int) -> dict:
    schedule = RampSchedule(N, floor_fraction=0.25, start=DROP_START, length=length)
    trace = run_spec(
        RunSpec(n=N, rounds=ROUNDS, protocol=protocol, eta=eta, schedule=schedule)
    ).trace
    return {
        "protocol": f"{protocol} (η={eta})",
        "decline": f"{length} rounds",
        "longest stall": max(map(len, stalls(trace))),
        "decisions": len(decision_rounds(trace)),
        "safe": check_safety(trace).ok,
    }


def test_churn_stall(record):
    def experiment():
        rows = []
        for protocol, eta in (("mmr", 0), ("resilient", 4), ("resilient", 8)):
            rows.append(run_decline(protocol, eta, length=5))  # steep: γ ≥ 1/3 per window
        for protocol, eta in (("mmr", 0), ("resilient", 4)):
            rows.append(run_decline(protocol, eta, length=30))  # gentle: below the curve
        return rows

    rows = experiment()
    record(
        format_table(
            ["protocol", "decline 60→15 over", "longest stall (rounds)", "decisions", "safe"],
            [[r["protocol"], r["decline"], r["longest stall"], r["decisions"], r["safe"]] for r in rows],
            title="E7: stall at the churn threshold (no Byzantine processes)",
        )
    )

    by_key = {(r["protocol"], r["decline"]): r for r in rows}
    steep_mmr = by_key[("mmr (η=0)", "5 rounds")]
    steep_e4 = by_key[("resilient (η=4)", "5 rounds")]
    steep_e8 = by_key[("resilient (η=8)", "5 rounds")]
    # MMR never stalls; the η protocols stall ≈ η rounds, longer for larger η.
    assert steep_mmr["longest stall"] == 2
    assert steep_e4["longest stall"] >= 4
    assert steep_e8["longest stall"] > steep_e4["longest stall"]
    # Everyone safe throughout; gentle decline stalls nobody.
    assert all(r["safe"] for r in rows)
    assert by_key[("resilient (η=4)", "30 rounds")]["longest stall"] == 2
