"""E11 — ebb-and-flow: what the expiration mechanism buys the pair (§3).

The paper positions its mechanism inside the ebb-and-flow design:
finality gadgets protect a *prefix*, but "network partitions or
asynchronous periods ... could lead to reorganizations of the chain
output by these dynamically available protocols", and "even
ebb-and-flow protocols can benefit, as the resulting protocol becomes
more robust during periods of asynchrony".

Measured, for the split-vote attack under a finality overlay (n = 20,
4 Byzantine, quorum 2/3 of all processes):

* the **available** chain: reorg events and max depth;
* the **finalised** prefix: cross-process compatibility (must always
  hold) and depth progress;
* plus the availability-finality dilemma itself: during a 60% outage
  finality stalls while the available chain grows.
"""

from repro.analysis import check_safety, format_table, max_reorg_depth, reorg_events
from repro.attacks import ScriptedAdversary, get_script
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import NetworkConditions
from repro.finality import ebb_and_flow_factory
from repro.sleepy import FullParticipation, NullAdversary, Simulation, SpikeSchedule

N = 20
HONEST = 16


def run_attack(protocol: str, eta: int) -> dict:
    registry = KeyRegistry(N, run_seed=0)
    attack = get_script("split-vote", N)  # corrupts HONEST..N-1, splits round 10
    sim = Simulation(
        registry,
        FullParticipation(N),
        ScriptedAdversary(attack),
        attack.conditions(),
        ebb_and_flow_factory(protocol, eta=eta, n=N),
    )
    trace = sim.run(24)
    finalized = [sim.processes[pid].finalized_tip for pid in range(HONEST)]
    finality_compatible = all(
        trace.tree.compatible(a, b) for a in finalized for b in finalized
    )
    return {
        "protocol": f"{protocol} (η={eta})",
        "available_safe": check_safety(trace).ok,
        "reorgs": len(reorg_events(trace)),
        "max_reorg": max_reorg_depth(trace),
        "finality_ok": finality_compatible,
        "finalized_depth": min(trace.tree.depth(tip) for tip in finalized),
    }


def run_outage() -> dict:
    registry = KeyRegistry(N, run_seed=1)
    sim = Simulation(
        registry,
        SpikeSchedule(N, drop_fraction=0.6, start=8, duration=10),
        NullAdversary(),
        NetworkConditions.synchronous(),
        ebb_and_flow_factory("resilient", eta=3, n=N),
    )
    trace = sim.run(26)
    process = sim.processes[0]
    finalized_during = [e for e in process.finalizations if 10 <= e.round < 18]
    decided_during = [d for d in trace.decisions if 10 <= d.round < 18]
    resumed = [e for e in process.finalizations if e.round >= 19]
    return {
        "finality_stalled": not finalized_during,
        "chain_grew": bool(decided_during),
        "finality_resumed": bool(resumed),
    }


def test_finality(record):
    def experiment():
        rows = [run_attack("mmr", 0), run_attack("resilient", 3)]
        outage = run_outage()
        return rows, outage

    rows, outage = experiment()
    table = format_table(
        ["inner protocol", "available safe", "reorg events", "max reorg depth", "finality consistent", "finalized depth"],
        [
            [r["protocol"], r["available_safe"], r["reorgs"], r["max_reorg"], r["finality_ok"], r["finalized_depth"]]
            for r in rows
        ],
        title="E11: split-vote attack under an ebb-and-flow finality overlay (n=20)",
    )
    table += "\n\n" + format_table(
        ["dilemma check (60% outage)", "observed"],
        [
            ["finality stalls below quorum", outage["finality_stalled"]],
            ["available chain keeps growing", outage["chain_grew"]],
            ["finality resumes after outage", outage["finality_resumed"]],
        ],
    )
    record(table)

    mmr, res = rows
    # Finality alone never reverts — but it does not protect the
    # user-facing available chain: that is the paper's motivation.
    assert mmr["finality_ok"] and res["finality_ok"]
    assert not mmr["available_safe"] and mmr["reorgs"] > 0
    assert res["available_safe"] and res["reorgs"] == 0
    assert outage["finality_stalled"] and outage["chain_grew"] and outage["finality_resumed"]
