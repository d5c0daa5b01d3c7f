"""Execution traces: everything the analysis layer needs from a run.

A trace holds, per round, the participation sets (``O_r``, ``H_r``,
``B_r``), whether the round was asynchronous, message counts, and every
decision event.  It also carries an *omniscient* block tree containing
every block anyone published during the run (honest or adversarial),
which the safety checkers use to test log compatibility across
processes.

Every substrate builds its trace the same way, with a
:class:`TraceRecorder` fed as the run goes: each message at publish,
each decision, and each round once its participation is known.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.chain.block import Block, BlockId, genesis_block
from repro.chain.store import BlockBuffer
from repro.chain.tree import BlockTree
from repro.sleepy.messages import Message, ProposeMessage, VoteMessage


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
    Byzantine processes never sleep (§2.1).  With ``B_r`` empty it is
    ``awake`` itself, and :meth:`TraceRecorder.close_round` passes the
    schedule's own set as ``awake`` then, so the records of a run with
    one participation set (full participation) share that one set.
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
        awake, byzantine = self.awake, self.byzantine
        object.__setattr__(self, "honest", frozenset(awake - byzantine if byzantine else awake))


@dataclass
class Trace:
    """Full record of one execution, on either substrate."""

    n: int
    rounds: list[RoundRecord] = field(default_factory=list)
    decisions: list[DecisionEvent] = field(default_factory=list)
    tree: BlockTree = field(default_factory=BlockTree)
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        # Short: asyncio's teardown reprs a task's result (an
        # EngineResult holding this trace) into an error message.
        return f"Trace(n={self.n}, rounds={self.horizon}, decisions={len(self.decisions)})"

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


class TraceRecorder:
    """The one way a :class:`Trace` is built: a fold over what a run records.

    :meth:`published` takes every message at the point it enters
    dissemination, counting its kind into its round and offering a
    proposal's block into the omniscient tree (through a lossless
    buffer: analysis must resolve every decided tip, so nothing is ever
    evicted).  :meth:`decided` appends decision events, and
    :meth:`close_round` turns a round's counts into its
    :class:`RoundRecord` once its participation is known.

    The simulator passes its run's canonical tree and closes each round
    as it ends.  A deployment shard records only what it publishes and
    ships :meth:`shipment`; the backend folds the k shipments into one
    recorder with :meth:`fold` and closes every round there.
    """

    def __init__(self, n: int, tree: BlockTree | None = None, meta: dict | None = None) -> None:
        if tree is None:
            tree = BlockTree([genesis_block()])
        self.trace = Trace(n=n, tree=tree, meta=dict(meta or {}))
        self._buffer = BlockBuffer(tree, max_orphans_per_source=None)
        #: Every block offered, once each, in first-offer order.
        self._blocks: dict[BlockId, Block] = {}
        #: round -> ``[votes, proposes, other]`` published in it, until closed.
        self._sent: dict[int, list[int]] = {}

    def published(self, round_number: int, message: Message) -> None:
        """Record ``message``, published in round ``round_number``."""
        counts = self._sent.get(round_number)
        if counts is None:
            counts = self._sent[round_number] = [0, 0, 0]
        if isinstance(message, VoteMessage):
            counts[0] += 1
        elif isinstance(message, ProposeMessage):
            counts[1] += 1
            if message.block is not None:
                self._offer(message.block)
        else:
            counts[2] += 1

    def decided(self, events: Iterable[DecisionEvent]) -> None:
        """Append decision events."""
        self.trace.decisions.extend(events)

    def close_round(
        self,
        round_number: int,
        scheduled: frozenset[int],
        byzantine: frozenset[int],
        asynchronous: bool,
    ) -> None:
        """Append round ``round_number``'s record.

        ``scheduled`` is the schedule's awake set; ``O_r`` adds ``B_r``
        to it, because Byzantine processes never sleep (§2.1).
        """
        votes, proposes, other = self._sent.pop(round_number, (0, 0, 0))
        self.trace.rounds.append(
            RoundRecord(
                round=round_number,
                awake=frozenset(scheduled | byzantine if byzantine else scheduled),
                byzantine=frozenset(byzantine),
                asynchronous=asynchronous,
                votes_sent=votes,
                proposes_sent=proposes,
                other_sent=other,
            )
        )

    def shipment(self) -> dict:
        """Picklable: every block offered (once each, in first-offer
        order), the counts of the rounds not yet closed, the decisions."""
        return {
            "blocks": tuple(self._blocks.values()),
            "sent": {r: tuple(counts) for r, counts in self._sent.items()},
            "decisions": list(self.trace.decisions),
        }

    def fold(self, shipment: Mapping) -> None:
        """Add another recorder's :meth:`shipment`, offering each of its blocks once."""
        for block in shipment["blocks"]:
            if block.block_id not in self._blocks:
                self._offer(block)
        for round_number, counts in shipment["sent"].items():
            mine = self._sent.setdefault(round_number, [0, 0, 0])
            for kind, count in enumerate(counts):
                mine[kind] += count
        self.decided(shipment["decisions"])

    def _offer(self, block: Block) -> None:
        self._blocks.setdefault(block.block_id, block)
        self._buffer.offer(block)
