"""Regenerates ``golden_traces.json`` (run manually, never from pytest).

The golden file was produced by the *pre-engine* simulator (flat message
pool, per-pid cursors) so that ``test_equivalence_refactor.py`` can
assert the refactored engine reproduces the exact same seeded
executions.  Re-running this script against the current code overwrites
the fixture with the current behaviour — only do that deliberately,
when a semantic change is intended and reviewed.

Usage::

    PYTHONPATH=src python tests/engine/_golden_gen.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"


def golden_scenarios():
    """name -> TOBRunConfig for every pinned seeded execution."""
    from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
    from repro.engine.conditions import NetworkConditions
    from repro.harness import TOBRunConfig
    from repro.sleepy.adversary import RandomAdversary
    from repro.sleepy.schedule import RandomChurnSchedule, SpikeSchedule
    from repro.workloads.transactions import constant_rate_stream

    return {
        "steady-resilient": TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=2, seed=0),
        "steady-mmr": TOBRunConfig(n=10, rounds=24, protocol="mmr", seed=1),
        "crash": apply_script(
            TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=2, seed=2),
            get_script("crash", 10, from_round=0),
        ),
        "equivocation": apply_script(
            TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=2, seed=3),
            AttackScript("equivocation", (phase(24, corrupt(9), equivocate()),)),
        ),
        "split-vote-attack-mmr": apply_script(
            TOBRunConfig(n=10, rounds=24, protocol="mmr", seed=0), get_script("split-vote", 10)
        ),
        "split-vote-attack-resilient": apply_script(
            TOBRunConfig(n=10, rounds=24, protocol="resilient", eta=4, seed=0),
            get_script("split-vote", 10),
        ),
        "blackout": apply_script(
            TOBRunConfig(n=8, rounds=20, protocol="resilient", eta=3, seed=4),
            get_script("blackout", 8, ra=6),
        ),
        "random-adversary-async": TOBRunConfig(
            n=12,
            rounds=30,
            protocol="resilient",
            eta=3,
            adversary=RandomAdversary([10, 11], seed=5),
            conditions=NetworkConditions.window(ra=10, pi=4),
            seed=5,
        ),
        "churn-spike": TOBRunConfig(
            n=12,
            rounds=30,
            protocol="resilient",
            eta=3,
            schedule=RandomChurnSchedule(12, 0.1, seed=6, min_awake=7),
            seed=6,
        ),
        "sleep-spike-mmr": TOBRunConfig(
            n=10,
            rounds=24,
            protocol="mmr",
            schedule=SpikeSchedule(10, 0.5, start=8, duration=6),
            seed=7,
        ),
        "transactions": TOBRunConfig(
            n=8,
            rounds=20,
            protocol="resilient",
            eta=2,
            transactions=constant_rate_stream(rate_per_round=3, rounds=20, seed=8),
            seed=8,
        ),
    }


def trace_digest(trace) -> dict:
    """A canonical, JSON-stable digest of one trace."""
    decisions = [[d.pid, d.round, d.view, d.tip] for d in trace.decisions]
    rounds = [
        [
            rec.round,
            sorted(rec.awake),
            sorted(rec.honest),
            sorted(rec.byzantine),
            rec.asynchronous,
            rec.votes_sent,
            rec.proposes_sent,
            rec.other_sent,
        ]
        for rec in trace.rounds
    ]
    rounds_blob = json.dumps(rounds, separators=(",", ":")).encode()
    return {
        "decisions": decisions,
        "rounds_sha256": hashlib.sha256(rounds_blob).hexdigest(),
        "horizon": trace.horizon,
        "n_blocks": len(trace.tree),
    }


def main() -> None:
    from repro.harness import run_tob

    golden = {name: trace_digest(run_tob(config)) for name, config in golden_scenarios().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")


if __name__ == "__main__":
    main()
