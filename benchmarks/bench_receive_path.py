"""E2 — receive-phase ingestion through shared verified batches.

The batched ingest pipeline moves all shareable receive work to one
pass per *delivery*: verification and classification happen once per
logical message run-wide, the per-round vote table is resolved once and
adopted by each receiver as a dict copy, and the round-bucketed vote
store prunes by popping buckets.

This bench replays a fixed message schedule (real signatures, real
blocks) through the actual :class:`ResilientTOBProcess` over the actual
:class:`IngestPipeline` at the acceptance configuration n = 200 and
reports the receive-phase seconds.  The pre-refactor store the pipeline
replaced lives on as a tier-1 oracle
(``tests/core/test_incremental_votes.py::NaiveLatestVoteStore``).

The wall clock is gated by ``check_trend.py`` against the committed
``BENCH_receive_path.json``; the deterministic counters are pinned
here: one crypto verification per logical message, one classified
batch per round.
"""

from __future__ import annotations

import time

from repro.chain.block import Block, genesis_block
from repro.core.resilient_tob import ResilientTOBProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine.ingest import IngestPipeline
from repro.sleepy.messages import make_propose, make_vote

BENCH_CONFIG = {
    "n": 200,
    "rounds": 30,
    "eta": 2,
    "proposers_per_round": 8,
    "repeats": 5,
    "seed": 0,
}


# ----------------------------------------------------------------------
# Schedule generation and replay
# ----------------------------------------------------------------------
def build_schedule(registry: KeyRegistry, n: int, rounds: int, proposers_per_round: int):
    """Per-round delivery tuples: n votes plus proposals on even rounds.

    Real signatures and VRFs over a growing block chain, mirroring what
    the bus hands every caught-up receiver (one shared tuple per round).
    """
    keys = [registry.secret_key(pid) for pid in range(n)]
    batches = []
    parent = genesis_block()
    tip = parent.block_id
    for r in range(rounds):
        messages = []
        if r % 2 == 0:
            view = r // 2 + 1
            block = Block(parent=tip, proposer=r % n, view=view)
            for proposer in range(proposers_per_round):
                messages.append(make_propose(registry, keys[proposer], r, view, block))
            tip = block.block_id
        for pid in range(n):
            messages.append(make_vote(registry, keys[pid], r, tip))
        batches.append(tuple(messages))
    return batches


def replay_batched(registry: KeyRegistry, batches, n: int, eta: int):
    pipeline = IngestPipeline(registry)
    processes = [
        ResilientTOBProcess(pid, registry.secret_key(pid), pipeline, eta=eta)
        for pid in range(n)
    ]
    started = time.perf_counter()
    for r, batch in enumerate(batches):
        for process in processes:
            process.receive(r, batch)
    return time.perf_counter() - started, processes[0], pipeline


def test_receive_path(record, bench_json):
    n, rounds, eta = BENCH_CONFIG["n"], BENCH_CONFIG["rounds"], BENCH_CONFIG["eta"]
    repeats = BENCH_CONFIG["repeats"]
    registry = KeyRegistry(n, run_seed=BENCH_CONFIG["seed"])
    batches = build_schedule(registry, n, rounds, BENCH_CONFIG["proposers_per_round"])
    unique_messages = sum(len(batch) for batch in batches)

    samples = []
    for _ in range(repeats):
        seconds, _process, pipeline = replay_batched(registry, batches, n, eta)
        samples.append(seconds)

    # Deterministic shape of the pipeline's sharing (the CI gate): one
    # crypto verification per logical message — not per receiver — and
    # one classified batch per delivered tuple, reused by the other
    # n − 1 receivers.
    assert pipeline.stats["crypto_verifications"] == unique_messages
    assert pipeline.stats["batches_built"] == rounds
    assert pipeline.stats["batch_memo_hits"] == rounds * (n - 1)
    assert pipeline.stats["rejected"] == 0

    record(
        "\n".join(
            [
                f"receive phase, n={n}, rounds={rounds}, eta={eta} (best of {repeats}):",
                f"  batched ingest   : {min(samples) * 1e3:8.1f} ms",
                f"  crypto verifications: {pipeline.stats['crypto_verifications']}"
                f" ({unique_messages} logical messages, {n} receivers)",
            ]
        )
    )
    bench_json(samples, messages=unique_messages)
