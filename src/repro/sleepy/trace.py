"""Execution traces: everything the analysis layer needs from a run.

The simulator records, per round, the participation sets (``O_r``,
``H_r``, ``B_r``), whether the round was asynchronous, message counts,
and every decision event.  The trace also carries an *omniscient* block
tree containing every block created during the run (honest or
adversarial), which the safety checkers use to test log compatibility
across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.block import BlockId
from repro.chain.tree import BlockTree


@dataclass(frozen=True)
class DecisionEvent:
    """Process ``pid`` decided (delivered) the log with tip ``tip`` at ``round``."""

    pid: int
    round: int
    view: int
    tip: BlockId | None


@dataclass(frozen=True)
class RoundRecord:
    """Participation and activity of one round.

    ``honest`` is derived, not passed: ``H_r = O_r \\ B_r``, because
    Byzantine processes never sleep (§2.1).
    """

    round: int
    awake: frozenset[int]  # O_r
    honest: frozenset[int] = field(init=False)  # H_r
    byzantine: frozenset[int]  # B_r
    asynchronous: bool
    votes_sent: int
    proposes_sent: int
    other_sent: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "honest", frozenset(self.awake - self.byzantine))


@dataclass
class Trace:
    """Full record of one simulated execution."""

    n: int
    rounds: list[RoundRecord] = field(default_factory=list)
    decisions: list[DecisionEvent] = field(default_factory=list)
    tree: BlockTree = field(default_factory=BlockTree)
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Participation-set accessors (paper §2.3 notation)
    # ------------------------------------------------------------------
    def record(self, round_number: int) -> RoundRecord:
        """The record of a given round."""
        rec = self.rounds[round_number]
        if rec.round != round_number:
            raise ValueError("trace rounds are not contiguous")
        return rec

    @property
    def horizon(self) -> int:
        """Number of executed rounds."""
        return len(self.rounds)

    def awake_union(self, start: int, end: int) -> frozenset[int]:
        """``O_{start,end}``: awake at some round in ``[start, end]`` (∅ below 0)."""
        result: set[int] = set()
        for r in range(max(start, 0), min(end, self.horizon - 1) + 1):
            result |= self.rounds[r].awake
        return frozenset(result)

    def honest_union(self, start: int, end: int) -> frozenset[int]:
        """``H_{start,end}``: honest and awake at some round in ``[start, end]``."""
        result: set[int] = set()
        for r in range(max(start, 0), min(end, self.horizon - 1) + 1):
            result |= self.rounds[r].honest
        return frozenset(result)

    # ------------------------------------------------------------------
    # Decision accessors
    # ------------------------------------------------------------------
    def decisions_by(self, pid: int) -> list[DecisionEvent]:
        """All decision events of one process, in round order."""
        return [d for d in self.decisions if d.pid == pid]

    def decided_tips_up_to(self, round_number: int) -> frozenset[BlockId | None]:
        """``D_r``: tips of logs decided by well-behaved processes in rounds ≤ r."""
        return frozenset(d.tip for d in self.decisions if d.round <= round_number)

    def delivered_tip(self, pid: int, round_number: int) -> BlockId | None:
        """The deepest log ``pid`` has delivered by the end of ``round_number``.

        ``None`` (the empty log) if the process has not decided yet.
        """
        tips = [d.tip for d in self.decisions if d.pid == pid and d.round <= round_number]
        if not tips:
            return None
        return self.tree.longest(tips)

    def deciders(self) -> frozenset[int]:
        """Processes that decided at least once."""
        return frozenset(d.pid for d in self.decisions)

    def last_decision_round(self) -> int | None:
        """Round of the last decision in the trace, or ``None``."""
        return max((d.round for d in self.decisions), default=None)
