#!/usr/bin/env python3
"""Ebb-and-flow: an available chain plus a finality gadget (paper §3).

Ethereum-style designs pair a dynamically available chain (fast, grows
under any participation) with a finality gadget (slow, certifies a
prefix with a fixed 2/3-of-all quorum).  The paper's §3 observes that
finality alone does not protect the *user-facing* available chain from
asynchrony — and that the expiration mechanism does.

This example runs the §1 attack against both pairings and shows:

* finality never reverts in either case (the gadget's job);
* the MMR available chain reorgs under the attack anyway;
* swapping the inner protocol for the η-expiration one removes the
  reorgs entirely, which is precisely what §3 means by "even
  ebb-and-flow protocols can benefit".

Run:  python examples/finality_overlay.py
"""

from repro.analysis import check_safety, format_table, max_reorg_depth, reorg_events
from repro.attacks import ScriptedAdversary, get_script
from repro.crypto.signatures import KeyRegistry
from repro.finality import ebb_and_flow_factory
from repro.sleepy import FullParticipation, Simulation


def run_pair(protocol: str, eta: int, n: int = 20):
    registry = KeyRegistry(n, run_seed=0)
    attack = get_script("split-vote", n)  # corrupts 16..19; the split vote is round 10
    sim = Simulation(
        registry,
        FullParticipation(n),
        ScriptedAdversary(attack),
        attack.conditions(),
        ebb_and_flow_factory(protocol, eta=eta, n=n),
    )
    trace = sim.run(24)
    finalized = [sim.processes[pid].finalized_tip for pid in range(16)]
    return {
        "label": f"{protocol} + finality (η={eta})",
        "available_safe": check_safety(trace).ok,
        "reorgs": len(reorg_events(trace)),
        "max_depth": max_reorg_depth(trace),
        "finality_consistent": all(
            trace.tree.compatible(a, b) for a in finalized for b in finalized
        ),
        "finalized_depth": min(trace.tree.depth(t) for t in finalized),
    }


def main() -> None:
    rows = [run_pair("mmr", 0), run_pair("resilient", 3)]
    print(
        format_table(
            [
                "pairing",
                "available safe",
                "reorg events",
                "max reorg depth",
                "finality consistent",
                "finalized depth",
            ],
            [
                [
                    r["label"],
                    r["available_safe"],
                    r["reorgs"],
                    r["max_depth"],
                    r["finality_consistent"],
                    r["finalized_depth"],
                ]
                for r in rows
            ],
            title="Split-vote attack against two ebb-and-flow pairings (n=20)",
        )
    )
    print()
    print("Finality holds either way — but only the η-expiration inner chain")
    print("spares its users the reorg.")


if __name__ == "__main__":
    main()
