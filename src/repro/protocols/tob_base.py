"""The view-structured TOB state machine (paper Algorithm 1).

The original MMR protocol and the paper's asynchrony-resilient
modification are one machine with one parameter: a GA instance started
in round ``g`` tallies each process's latest unexpired vote over rounds
``[g − η, g]`` (§3.3).  η = 0 is the original protocol — each GA tallies
only the votes cast in its own round, which tolerates fully dynamic
participation but loses safety in a single asynchronous decision round
(the §1 attack, ``benchmarks/bench_async_attack.py``).  Under the
paper's assumptions (validated per run by :mod:`repro.analysis.
assumptions`) η > 0 keeps it a Byzantine TOB (Theorem 1), makes it
π-asynchrony-resilient for every π < η (Theorem 2) and healing one
round after synchrony resumes (Theorem 3).

Round/view layout (Algorithm 1):

* round 0 (view 0): multicast ``[propose, [b0], VRF(1)]`` — all
  processes propose the genesis log for view 1.
* round ``2v − 1`` (round 1 of view ``v ≥ 1``):
  compute the outputs of ``GA_{v−1,2}`` (votes of round ``2v − 2``);
  **decide** every log output with grade 1; set ``L_{v−1}`` to the
  longest log output with any grade; start ``GA_{v,1}`` by voting for
  the log of the propose message with the largest valid ``VRF(v)`` that
  does not conflict with ``L_{v−1}``.
* round ``2v`` (round 2 of view ``v``):
  compute the outputs of ``GA_{v,1}`` (votes of round ``2v − 1``);
  start ``GA_{v,2}`` by voting for the longest log output with grade 1;
  set ``C_v`` to the longest log output with any grade; multicast
  ``[propose, C_v‖b, VRF(v + 1)]`` with a fresh block ``b``.

Conventions where the paper leaves freedom (all documented choices):

* ``L_0`` is the empty log — nothing conflicts with it, so every view-1
  proposal (necessarily ``[b0]``) is admissible.
* If no admissible proposal is known when ``GA_{v,1}`` starts (possible
  only outside the paper's assumptions), the process votes for
  ``L_{v−1}`` itself rather than halting.
* A GA tally with **no votes at all** (``m = 0``, impossible under the
  paper's synchrony assumptions but reachable during delivery
  blackouts) falls back to the process's own delivered log, never the
  empty log: restarting from scratch would make even the fault-free
  baseline fork after an outage, which the paper does not intend — the
  baseline's asynchrony failures should come from the adversary, not
  from an implementation artefact.
* Ties (equal depth) among "longest" outputs are broken by tip id;
  VRF ties by (value, sender).  Both keep honest processes
  deterministic and identical.
* The ``GA_{v,1}`` input is the max-VRF non-conflicting proposal *or*
  ``L_{v−1}``, whichever is longer.  Taken literally, "a log in the
  propose message with the largest valid VRF(v) not conflicting with
  ``L_{v−1}``" admits proposals that are *prefixes* of ``L_{v−1}``
  (e.g. ``[b0]``), and voting such a proposal regresses the chain and
  breaks the induction in the paper's own Lemma 3 proof — a Byzantine
  proposer winning sortition with a stale-but-compatible proposal
  could then fork the chain under full synchrony.  Lemma 3 needs every
  honest vote to extend decided logs, and ``L_{v−1}`` always does, so
  the vote never goes below it.  (The regression is kept as an xfail
  attack test: ``tests/protocols/test_adversarial_proposers.py``.)
* A process records a decision event whenever the decided log strictly
  extends — or conflicts with — the longest log it has delivered so
  far; re-deliveries of prefixes are silent.  Conflicting decisions are
  *recorded faithfully* so the safety checkers can observe violations.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.chain.block import GENESIS_TIP, Block, BlockId, genesis_block
from repro.chain.shared import ChainView, SharedChain
from repro.chain.store import BlockBuffer
from repro.chain.tally import grade_thresholds
from repro.chain.transactions import Mempool
from repro.chain.tree import BlockTree
from repro.core.extended_ga import GARead, GradedAgreement
from repro.crypto.signatures import SecretKey
from repro.protocols.graded_agreement import DEFAULT_BETA, GAOutput
from repro.sleepy.messages import (
    Message,
    ProposeMessage,
    VerifiedBatch,
    make_propose,
    make_vote,
)
from repro.sleepy.process import Process, ProcessFactory
from repro.sleepy.trace import DecisionEvent

if TYPE_CHECKING:  # pragma: no cover - typing only (engine sits above protocols)
    from repro.engine.ingest import IngestPipeline

#: Maximum transactions a proposer packs into one block.
DEFAULT_BLOCK_CAPACITY = 16


def first_round_of_view(view: int) -> int:
    """The round in which ``view`` starts (layout above): ``2v − 1``, view 0 at round 0."""
    return max(2 * view - 1, 0)


@dataclass(frozen=True)
class TallySample:
    """Telemetry of one GA tally: how close the quorum race was.

    ``margin`` is ``best_count − ⌊(1 − β)·m⌋`` — how many votes past
    (positive) or short of (non-positive) the grade-1 threshold the
    leading log was.  Falling margins are the early-warning signal that
    churn or stale votes are eating the quorum (the Equation 2 story).
    """

    ga_round: int
    m: int
    best_count: int
    best_depth: int
    margin: int


class SleepyTOBProcess(Process):
    """A well-behaved participant of Algorithm 1 with expiration period η."""

    def __init__(
        self,
        pid: int,
        key: SecretKey,
        verifier: IngestPipeline,
        eta: int = 0,
        beta: Fraction = DEFAULT_BETA,
        block_capacity: int = DEFAULT_BLOCK_CAPACITY,
        record_telemetry: bool = False,
        chain: SharedChain | None = None,
    ) -> None:
        if eta < 0:
            raise ValueError("expiration period η must be non-negative")
        super().__init__(pid)
        self._key = key
        self._verifier = verifier
        self.eta = eta
        self.mempool = Mempool()
        self._block_capacity = block_capacity
        self._record_telemetry = record_telemetry
        #: Per-GA quorum-race telemetry (populated when enabled).
        self.telemetry: list[TallySample] = []

        # With a run-shared chain the process holds a visibility *view*
        # over the one interned tree (identical query semantics, O(1)
        # steady memory when caught up); without one — the deployment
        # substrate, where processes cannot share memory — it owns a
        # private tree exactly as before.
        self.tree: BlockTree | ChainView = (
            chain.view() if chain is not None else BlockTree([genesis_block()])
        )
        self._buffer = BlockBuffer(self.tree)
        # The one long-lived graded agreement every GA instance of the
        # run is a window query on (Figure 3; ``M₀`` is whatever the
        # store already holds from rounds ``[g − η, g)``).
        self._ga = GradedAgreement(self.tree, beta)
        self._votes = self._ga.votes
        # view -> sender -> propose message (or _EQUIVOCATED marker).
        self._proposals: dict[int, dict[int, ProposeMessage | None]] = {}
        # view -> (seen senders, ascending (VRF value, sender)):
        # _select_proposal takes the max-VRF admissible entry by
        # scanning from the top instead of a full per-call scan.  The
        # order is content-derived (a proposer's VRF value for a view is
        # deterministic and verified), so with a run-shared chain the
        # sorted list is interned once per run rather than once per
        # receiver; selection skips senders this receiver hasn't stored.
        self._proposal_index: dict[int, tuple[set[int], list[tuple[int, int]]]] = (
            chain.scratch("proposal_order") if chain is not None else {}
        )
        self._index_is_shared = chain is not None
        # All views below this floor have been pruned (or were never
        # consultable); _prune_proposals advances it incrementally.
        self._proposal_floor = 0

        #: Tip of the longest log this process has delivered.
        self.delivered_tip: BlockId | None = GENESIS_TIP
        # Ids of every transaction in the delivered log: the process's
        # one membership set (the tree stores none), extended at each
        # decision by the newly delivered segment only.
        self._delivered_ids: set[str] = set()
        self._pending_decisions: list[DecisionEvent] = []

    # ------------------------------------------------------------------
    # Send phase (Algorithm 1, per round kind)
    # ------------------------------------------------------------------
    def send(self, round_number: int) -> Sequence[Message]:
        if round_number == 0:
            return self._send_view_zero(round_number)
        if round_number % 2 == 1:
            return self._send_round_one(round_number)
        return self._send_round_two(round_number)

    def _send_view_zero(self, r: int) -> Sequence[Message]:
        # Multicast [propose, [b0], VRF(1)]: propose the genesis log for view 1.
        return [make_propose(self._verifier.registry, self._key, r, view=1, block=genesis_block())]

    def _send_round_one(self, r: int) -> Sequence[Message]:
        view = (r + 1) // 2
        longest_any = GENESIS_TIP  # L_0: the empty log
        if view >= 2:
            m, longest_grade1, longest_any, _ = self._ga_longest(r - 1)
            if m:
                self._decide(longest_grade1, r, view - 1)
            else:
                longest_any = self.delivered_tip  # m = 0 fallback (see module docs)

        input_tip = self._select_proposal(view, longest_any)
        return [make_vote(self._verifier.registry, self._key, r, input_tip)]

    def _send_round_two(self, r: int) -> Sequence[Message]:
        view = r // 2
        m, input_tip, c_v, _ = self._ga_longest(r - 1)
        if not m:
            input_tip = c_v = self.delivered_tip  # m = 0 fallback (see module docs)

        block = self._make_block(parent=c_v, view=view + 1)
        return [
            make_vote(self._verifier.registry, self._key, r, input_tip),
            make_propose(self._verifier.registry, self._key, r, view=view + 1, block=block),
        ]

    # ------------------------------------------------------------------
    # Receive phase
    # ------------------------------------------------------------------
    def receive(self, round_number: int, messages: Sequence[Message]) -> None:
        self.receive_batch(round_number, self._verifier.batch(messages))

    def receive_batch(self, round_number: int, batch: VerifiedBatch) -> None:
        """Ingest one pre-verified delivery (the hot half of ``receive``).

        The batch arrives classified and round-resolved from the shared
        ingest pipeline — under synchrony every caught-up receiver gets
        the *same* batch object, so verification, classification, and
        the resolution of its vote and proposal tables ran once, not
        once per process.  Only the per-process state updates happen
        here: adopting or merging the resolved tables, and admitting
        the delivery's blocks as one run.
        """
        if batch.votes:
            self._votes.record_table(batch.vote_table())
        if batch.proposes:
            self._record_proposals(batch, round_number)
        self._prune_proposals(round_number)
        # Everything below the reach of any future window is expired.
        self._votes.prune(round_number - self.eta)

    def _prune_proposals(self, round_number: int) -> None:
        # A view-v proposal is only ever consulted at round 2v − 1; keep a
        # couple of views of slack for processes acting on a backlog, and
        # drop the rest so long runs stay memory-bounded.  The floor
        # tracks the lowest possibly-live view, so each delivery pays
        # for the views that actually expired since the last one (O(1)
        # amortised) instead of rebuilding a list over every live view.
        current_view = (round_number + 1) // 2
        horizon = current_view - 2
        while self._proposal_floor < horizon:
            self._proposals.pop(self._proposal_floor, None)
            if not self._index_is_shared:
                # A shared order is pruned by nobody: other receivers may
                # lag, and its footprint (one tuple per distinct proposal)
                # is the same order as the interned tree itself.
                self._proposal_index.pop(self._proposal_floor, None)
            self._proposal_floor += 1

    def _record_proposals(self, batch: VerifiedBatch, round_number: int) -> None:
        table = batch.proposal_table()
        # A well-behaved view-v proposal is multicast at round 2v − 2 and
        # can therefore never be received before that round; future-view
        # proposals are Byzantine chaff and would otherwise accumulate
        # unboundedly (their view keys sit above the pruning horizon).
        latest_view = round_number // 2 + 1
        # Block admission does not depend on proposal bookkeeping: a
        # process catching up on a backlog needs the blocks of views it
        # will never vote in.  Keyed by the verified sender: a Byzantine
        # proposer flooding never-attachable blocks exhausts its own
        # orphan quota, never another sender's honestly out-of-order block.
        if table.max_view <= latest_view:
            self._buffer.offer_run(table.blocks)
        else:
            for message in batch.proposes:
                if message.view <= latest_view:
                    self._buffer.offer(message.block, source=message.sender)

        proposals = self._proposals
        index = self._proposal_index
        for view, resolved in table.by_view.items():
            # Below the prune floor nothing can consult the proposal.
            if view < self._proposal_floor or view > latest_view:
                continue
            held = proposals.get(view)
            if held is None:
                proposals[view] = dict(resolved)
            else:
                for sender, message in resolved.items():
                    existing = held.get(sender, _MISSING)
                    if existing is _MISSING:
                        held[sender] = message
                    elif existing is not None and (message is None or existing.tip != message.tip):
                        # Equivocating proposer: all its proposals for this view are void.
                        held[sender] = None
            entry = index.get(view)
            if entry is None:
                entry = index.setdefault(view, (set(), []))
            seen, order = entry
            if not seen.issuperset(resolved):
                for row in table.order_rows[view]:
                    if row[1] not in seen:
                        seen.add(row[1])
                        insort(order, row)

    # ------------------------------------------------------------------
    # Algorithm steps
    # ------------------------------------------------------------------
    def _ga_longest(self, ga_round: int) -> GARead:
        """``(m, longest grade-1 log, longest graded log, its count)`` of
        the GA started in ``ga_round`` — all Algorithm 1 reads of it."""
        read = self._ga.longest(max(0, ga_round - self.eta), ga_round)
        if self._record_telemetry:
            self._sample_tally(ga_round, read)
        return read

    def _ga_output(self, ga_round: int) -> GAOutput:
        """The same GA's full output, enumerated (what the suites inspect)."""
        return self._ga.output(max(0, ga_round - self.eta), ga_round)

    def _sample_tally(self, ga_round: int, read: GARead) -> None:
        # From the read itself: a shared tally holds whichever window was
        # tallied last, not necessarily this receiver's.
        m, best_tip, _, best_count = read
        self.telemetry.append(
            TallySample(
                ga_round=ga_round,
                m=m,
                best_count=best_count,
                best_depth=self.tree.depth(best_tip),
                margin=best_count - grade_thresholds(self._ga.beta, m)[0],
            )
        )

    def _select_proposal(self, view: int, longest_any: BlockId | None) -> BlockId | None:
        # Walk the view's (VRF value, sender) index from the top: the
        # first admissible proposal *is* the max-VRF admissible one, so
        # the winner usually costs one probe instead of a scan over
        # every stored proposal.
        best: ProposeMessage | None = None
        per_view = self._proposals.get(view)
        if per_view:
            stored = per_view.get
            for _value, sender in reversed(self._proposal_index[view][1]):
                # A shared index covers every receiver's proposals; one
                # this receiver never stored (get -> None, like an
                # equivocator's) is simply skipped.
                message = stored(sender)
                if message is None:  # equivocator or not received here
                    continue
                if message.tip not in self.tree:  # orphaned block: cannot interpret
                    continue
                if self.tree.conflict(message.tip, longest_any):
                    continue
                best = message
                break
        if best is None:
            return longest_any
        # Never vote below L_{v−1}: a stale (prefix) proposal with a
        # winning VRF must not regress the chain (see module docs).
        return self.tree.longest([best.tip, longest_any])

    def _make_block(self, parent: BlockId | None, view: int) -> Block:
        # Exclude everything on the parent's path: the delivered set
        # plus the (short) undelivered segment above the delivered tip —
        # or, when the parent does not extend the delivered tip, the
        # whole path, walked.
        tree = self.tree
        exclude: tuple[Set[str], ...] = ()
        if parent in tree:
            if tree.is_prefix(self.delivered_tip, parent):
                segment = tree.payload_ids(parent, above=self.delivered_tip)
                exclude = (self._delivered_ids, segment)
            else:
                exclude = (tree.payload_ids(parent),)
        payload = self.mempool.take(self._block_capacity, *exclude)
        block = Block(parent=parent, proposer=self.pid, view=view, payload=payload)
        self._buffer.offer(block)
        return block

    def _decide(self, tip: BlockId | None, round_number: int, view: int) -> None:
        if tip == self.delivered_tip:
            return
        if self.tree.is_prefix(tip, self.delivered_tip):
            return  # re-delivery of a prefix: nothing new
        self._pending_decisions.append(
            DecisionEvent(pid=self.pid, round=round_number, view=view, tip=tip)
        )
        if self.tree.is_prefix(self.delivered_tip, tip):
            self._delivered_ids |= self.tree.payload_ids(tip, above=self.delivered_tip)
        else:  # a conflicting decision, recorded faithfully: start over
            self._delivered_ids = set(self.tree.payload_ids(tip))
        self.delivered_tip = tip
        self.mempool.mark_included(self._delivered_ids)

    # ------------------------------------------------------------------
    # Accountability
    # ------------------------------------------------------------------
    def detected_equivocators(self) -> frozenset[int]:
        """Processes this process caught double-signing.

        Covers both vote equivocation (two different votes in one round)
        and proposal equivocation (two different proposals for one
        view).  Both are attributable offences — the conflicting signed
        messages are the evidence a slashing mechanism would consume.
        """
        proposal_cheats = {
            sender
            for per_view in self._proposals.values()
            for sender, message in per_view.items()
            if message is None
        }
        return self._votes.equivocators() | frozenset(proposal_cheats)

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def pop_decisions(self) -> list[DecisionEvent]:
        """Decision events since the last call (drained by the simulator)."""
        events, self._pending_decisions = self._pending_decisions, []
        return events

    @property
    def delivered_log(self):
        """The longest log this process has delivered, materialised."""
        return self.tree.log(self.delivered_tip)


def resilient_factory(
    eta: int,
    beta: Fraction = DEFAULT_BETA,
    block_capacity: int = DEFAULT_BLOCK_CAPACITY,
    record_telemetry: bool = False,
) -> ProcessFactory:
    """A :data:`~repro.sleepy.process.ProcessFactory` for Algorithm 1 with this η."""

    def factory(
        pid: int, key: SecretKey, verifier: IngestPipeline, chain: SharedChain | None = None
    ) -> SleepyTOBProcess:
        return SleepyTOBProcess(
            pid,
            key,
            verifier,
            eta=eta,
            beta=beta,
            block_capacity=block_capacity,
            record_telemetry=record_telemetry,
            chain=chain,
        )

    factory.supports_shared_chain = True
    return factory


_MISSING = object()
