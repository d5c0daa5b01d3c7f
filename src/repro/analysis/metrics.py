"""Quantitative metrics over traces: latency, growth, throughput.

The paper's practical pitch (§1) is about latency and throughput being
proportional to the synchrony bound δ; these helpers extract the
round-denominated quantities that the benches then convert to seconds
for a given δ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sleepy.trace import Trace


@dataclass(frozen=True)
class GrowthPoint:
    """Deepest decided log (globally) at the end of one round."""

    round: int
    depth: int


def decided_depth_timeline(trace: Trace) -> list[GrowthPoint]:
    """Per-round maximum depth of any decided log (monotone under safety)."""
    timeline: list[GrowthPoint] = []
    best = 0
    decisions_by_round: dict[int, list[int]] = {}
    for event in trace.decisions:
        decisions_by_round.setdefault(event.round, []).append(trace.tree.depth(event.tip))
    for rec in trace.rounds:
        depths = decisions_by_round.get(rec.round, ())
        if depths:
            best = max(best, max(depths))
        timeline.append(GrowthPoint(rec.round, best))
    return timeline


def chain_growth_rate(trace: Trace, start: int = 0, end: int | None = None) -> float:
    """Blocks decided per round over ``[start, end]`` (end defaults to horizon)."""
    timeline = decided_depth_timeline(trace)
    if not timeline:
        return 0.0
    end = min(end if end is not None else trace.horizon - 1, trace.horizon - 1)
    if end <= start:
        return 0.0
    depth_at = {p.round: p.depth for p in timeline}
    return (depth_at[end] - depth_at.get(start, 0)) / (end - start)


def decision_rounds(trace: Trace) -> list[int]:
    """Rounds at which the globally deepest decided log grew."""
    rounds: list[int] = []
    best = 0
    for point in decided_depth_timeline(trace):
        if point.depth > best:
            rounds.append(point.round)
            best = point.depth
    return rounds


def stalls(trace: Trace) -> list[range]:
    """Every stretch between growths of the decided chain, first to last.

    Each is ``range(a, b)``: the chain grew at round ``a`` and next at round
    ``b`` (the horizon for the last stretch), so it stood still in rounds
    ``a+1 .. b-1`` and ``len`` is the gap a longest-stall column shows.  The
    first stretch starts at round 1: a run whose 3-round pipeline first
    decides at round 3 opens with its 2-round cadence, not a stall.  It is
    empty iff the chain grew by round 1.
    """
    points = [1, *decision_rounds(trace), trace.horizon]
    return [range(a, b) for a, b in zip(points, points[1:])]


def decision_gaps(trace: Trace) -> list[int]:
    """Rounds between successive growth events (protocol cadence)."""
    return [len(stretch) for stretch in stalls(trace)[1:-1]]


def block_decision_latencies(trace: Trace) -> list[int]:
    """Per-block latency: rounds from the block's proposal to its first decision.

    A block proposed for view ``v`` is multicast in round ``2(v − 1)``
    (Algorithm 1 step 12; round 0 for the genesis proposal).  Latency is
    measured to the first decision event whose log contains the block.
    MMR's headline is 3 rounds in the good case.
    """
    # Assignments always cover whole root paths, so any block already
    # attributed has all its ancestors attributed too (at the same or
    # an earlier round): walking tip-down and stopping at the first
    # known block visits each block once over the whole trace instead
    # of re-walking every decided log from the root.
    first_decided: dict[str, int] = {}
    for event in sorted(trace.decisions, key=lambda d: d.round):
        node = event.tip
        fresh: list[str] = []
        while node is not None and node not in first_decided:
            fresh.append(node)
            node = trace.tree.parent(node)
        for block_id in reversed(fresh):  # root-first, as a path walk would
            first_decided[block_id] = event.round
    latencies: list[int] = []
    for block_id, decided_round in first_decided.items():
        view = trace.tree.get(block_id).view
        proposed_round = max(0, 2 * (view - 1))
        latencies.append(decided_round - proposed_round)
    return latencies


def transactions_decided(trace: Trace) -> int:
    """Number of distinct transactions in the deepest decided log."""
    last = max(
        (d.tip for d in trace.decisions),
        key=lambda tip: trace.tree.depth(tip),
        default=None,
    )
    if last is None:
        return 0
    return len(trace.tree.payload_ids(last))


def message_totals(trace: Trace) -> dict[str, int]:
    """Total votes/proposals sent over the run."""
    return {
        "votes": sum(rec.votes_sent for rec in trace.rounds),
        "proposes": sum(rec.proposes_sent for rec in trace.rounds),
        "other": sum(rec.other_sent for rec in trace.rounds),
    }


def participation_timeline(trace: Trace) -> list[tuple[int, int, int]]:
    """Per round: (round, |O_r|, |H_r|)."""
    return [(rec.round, len(rec.awake), len(rec.honest)) for rec in trace.rounds]


@dataclass(frozen=True)
class ReorgEvent:
    """A process switched to a log conflicting with one it had delivered.

    ``depth`` is how many blocks of the previously delivered log were
    abandoned (distance from the old tip to the common prefix) — the
    quantity blockchain operators mean by "a reorg of depth d".
    """

    pid: int
    round: int
    old_tip: str | None
    new_tip: str | None
    depth: int


def reorg_events(trace: Trace) -> list[ReorgEvent]:
    """All delivered-log reorganisations, per process, in round order.

    A safe execution has none (delivered logs grow); protocols that
    lose safety under asynchrony show up here with the depth of chain
    they rewrote — the practical damage §3 warns about for dynamically
    available chains under ebb-and-flow.
    """
    events: list[ReorgEvent] = []
    last_tip: dict[int, object] = {}
    for decision in sorted(trace.decisions, key=lambda d: (d.round, d.pid)):
        previous = last_tip.get(decision.pid, _UNSEEN)
        if previous is not _UNSEEN and trace.tree.conflict(previous, decision.tip):
            fork = trace.tree.common_prefix([previous, decision.tip])
            events.append(
                ReorgEvent(
                    pid=decision.pid,
                    round=decision.round,
                    old_tip=previous,  # type: ignore[arg-type]
                    new_tip=decision.tip,
                    depth=trace.tree.depth(previous) - trace.tree.depth(fork),
                )
            )
        last_tip[decision.pid] = decision.tip
    return events


def max_reorg_depth(trace: Trace) -> int:
    """Deepest reorganisation anywhere in the run (0 for safe runs)."""
    return max((event.depth for event in reorg_events(trace)), default=0)


_UNSEEN = object()
