"""What one sample's :class:`~repro.sleepy.trace.Trace` says about service.

Pure functions over a trace and the submitted traffic: the lifecycle of
every transaction, latency percentiles in rounds, failure accounting,
the decision digest, and the summary statistics printed per metric.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

#: A transaction counts as attempted only when it was due at least this
#: many rounds before the end of the run: a healthy run decides it in 4,
#: and one that arrives later cannot be told from one that was lost.
LATENCY_CUTOFF_ROUNDS = 8


def decision_digest(trace) -> str:
    """sha256 over the sorted ``(pid, round, view, tip)`` of every decision."""
    rows = sorted((d.pid, d.round, d.view, d.tip or "") for d in trace.decisions)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@dataclass(frozen=True)
class Lifecycle:
    """One transaction: due, first proposed and first decided round."""

    arrival: int
    proposed: int | None
    decided: int | None


def _blocks(tree) -> Iterable:
    """Every block of ``tree`` once (it only exposes tips and paths)."""
    seen: set[str] = set()
    for tip in tree.tips():
        node = tip
        while node is not None and node not in seen:
            seen.add(node)
            block = tree.get(node)
            yield block
            node = block.parent


def tx_lifecycles(trace, arrivals: Mapping[str, int]) -> dict[str, Lifecycle]:
    """Lifecycle of every submitted transaction (``arrivals``: tx id → round due).

    *Proposed* is the round the first block carrying the transaction was
    multicast: a view-``v`` block goes out at round ``2v − 2``.
    *Decided* is the first round at which any process decides a log that
    contains it.
    """
    tree = trace.tree
    proposed: dict[str, int] = {}
    for block in _blocks(tree):
        round_sent = 2 * block.view - 2
        for tx in block.payload:
            tx_id = tx.tx_id
            if round_sent < proposed.get(tx_id, math.inf):
                proposed[tx_id] = round_sent
    decided: dict[str, int] = {}
    walked: set[str] = set()
    for event in sorted(trace.decisions, key=lambda d: d.round):
        node = event.tip
        while node is not None and node not in walked:
            walked.add(node)
            block = tree.get(node)
            for tx in block.payload:
                decided.setdefault(tx.tx_id, event.round)
            node = block.parent
    return {
        tx_id: Lifecycle(arrival, proposed.get(tx_id), decided.get(tx_id))
        for tx_id, arrival in arrivals.items()
    }


def account(
    lifecycles: Mapping[str, Lifecycle], rounds: int, checks_ok: bool
) -> tuple[int, int, list[int]]:
    """``(attempted, failed, latencies)`` under the cut-off.

    Attempted: due at or before ``rounds − LATENCY_CUTOFF_ROUNDS``.
    Failed: attempted and never decided — or every attempted
    transaction when the sample failed a check, since nothing a forked
    or stalled service acknowledged can be relied on.
    """
    last_due = rounds - LATENCY_CUTOFF_ROUNDS
    counted = [life for life in lifecycles.values() if life.arrival <= last_due]
    latencies = [life.decided - life.arrival for life in counted if life.decided is not None]
    failed = len(counted) - len(latencies) if checks_ok else len(counted)
    return len(counted), failed, latencies


def percentile_rounds(latencies: Sequence[int], q: float) -> float:
    """The ``q``-th percentile (0–100) of whole-round latencies.

    Latencies are whole numbers of rounds, so a nearest-rank percentile
    moves in steps of one round and hides any shift that does not cross
    a rank.  This is the percentile of grouped data instead: latency
    ``k`` stands for the interval ``(k − ½, k + ½]`` and the percentile
    is read off the piecewise-linear distribution, so a run in which
    every transaction takes 4 rounds has a median of 4.0 and moving a
    tenth of them to 5 rounds raises its p95 smoothly.
    """
    if not latencies:
        raise ValueError("percentile of no latencies")
    if not 0 < q < 100:
        raise ValueError("q must be strictly between 0 and 100")
    target = q / 100 * len(latencies)
    below = 0
    for value, count in sorted(Counter(latencies).items()):
        if below + count >= target:
            return value - 0.5 + (target - below) / count
        below += count
    raise AssertionError("unreachable: the counts sum to len(latencies)")


def decision_gap_max(trace) -> int:
    """Longest gap between consecutive rounds that saw a decision."""
    rounds = sorted({d.round for d in trace.decisions})
    if len(rounds) < 2:
        return trace.horizon
    return max(b - a for a, b in zip(rounds, rounds[1:]))


def deepest_decided_tip(trace):
    """Tip of the longest log any process decided (``None``: nothing decided)."""
    tips = [d.tip for d in trace.decisions]
    return trace.tree.longest(tips) if tips else None


def log_faults(trace, arrivals: Mapping[str, int]) -> list[str]:
    """Transactions of the deepest decided log never submitted, or repeated."""
    tip = deepest_decided_tip(trace)
    if tip is None:
        return []
    counts = Counter(tx.tx_id for tx in trace.tree.log(tip).transactions())
    return [
        f"{tx_id[:12]}: " + ("not submitted" if tx_id not in arrivals else f"appears {count}x")
        for tx_id, count in counts.items()
        if tx_id not in arrivals or count != 1
    ]


def views_without_decision(trace, rounds: int) -> list[int]:
    """Views a healthy run of ``rounds`` rounds decides, that nobody decided.

    View ``v`` is decided at round ``2v + 1``, so a run of ``rounds``
    rounds can decide views ``1 .. (rounds − 2) // 2``.
    """
    decided = {d.view for d in trace.decisions}
    return [view for view in range(1, (rounds - 2) // 2 + 1) if view not in decided]


def summarise(values: Sequence[float]) -> dict:
    """n, median, min and quartiles (``statistics.quantiles(values, n=4)``)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
    }


def spread(summary: Mapping) -> float:
    """Interquartile distance as a share of the median."""
    if summary["median"] == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
