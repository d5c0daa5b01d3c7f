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
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.chain.block import GENESIS_TIP, Block, BlockId, genesis_block
from repro.chain.shared import ChainView, DecidedIndex, SharedChain
from repro.chain.store import BlockBuffer
from repro.chain.transactions import NONE_DECIDED, Decided, Mempool
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
BLOCK_CAPACITY = 16


def first_round_of_view(view: int) -> int:
    """The round in which ``view`` starts (layout above): ``2v − 1``, view 0 at round 0."""
    return max(2 * view - 1, 0)


class SleepyTOBProcess(Process):
    """A well-behaved participant of Algorithm 1 with expiration period η.

    Given its run's (or shard's) :class:`~repro.chain.shared.SharedChain`,
    a process keeps per-process state only where it differs between
    processes, and reads what the chain's processes share from the
    chain: a view over the one tree; its delivered log as a depth on the
    chain's :class:`~repro.chain.shared.DecidedIndex` (its own index
    only after a decision off that index's path); a delivery's vote and
    proposal tables adopted by reference, copied before a first merge;
    its GA reads and their ``(ga_round, read)`` pairs, one per chain.
    Without a chain it owns a private tree and index.
    """

    def __init__(
        self,
        pid: int,
        key: SecretKey,
        verifier: IngestPipeline,
        eta: int = 0,
        beta: Fraction = DEFAULT_BETA,
        chain: SharedChain | None = None,
    ) -> None:
        if eta < 0:
            raise ValueError("expiration period η must be non-negative")
        super().__init__(pid)
        self._key = key
        self._verifier = verifier
        self.eta = eta
        self.mempool = Mempool(pid=pid, log=chain.arrival_log if chain is not None else None)
        #: ``(ga_round, read)`` for every GA this process read, in order;
        #: each read is the object the GA returned, never a copy (a shared
        #: chain's receivers reference one read per distinct window, and
        #: one pair per read).
        self.ga_reads: list[tuple[int, GARead]] = []
        # ga_round -> {id(read): (ga_round, read)}: the pairs, interned
        # per chain; the pair holds its read, so an id cannot be reused
        # while its entry lives.  Rounds below the vote horizon are forgotten.
        self._read_pairs: dict[int, dict[int, tuple[int, GARead]]] = (
            chain.scratch("ga_read_pairs") if chain is not None else {}
        )

        # With a shared chain (one per simulation, one per deployment
        # shard) the process holds a visibility *view* over the one
        # interned tree (the same query semantics, O(1) steady memory
        # when caught up); without one it owns a private tree.
        self.tree: BlockTree | ChainView = (
            chain.view() if chain is not None else BlockTree([genesis_block()])
        )
        self._buffer = BlockBuffer(self.tree)
        # The one long-lived graded agreement every GA instance of the
        # run is a window query on (Figure 3; ``M₀`` is whatever the
        # store already holds from rounds ``[g − η, g)``).
        self._ga = GradedAgreement(self.tree, beta)
        self._votes = self._ga.votes
        # view -> sender -> propose message (or None: an equivocator).
        self._proposals: dict[int, dict[int, ProposeMessage | None]] = {}
        # Views whose table is a delivery's, adopted by reference (every
        # receiver of a shared delivery holds the one table) and copied
        # before its first merge.
        self._adopted: set[int] = set()
        # view -> (seen senders, ascending (VRF value, sender)):
        # _select_proposal takes the max-VRF admissible entry by
        # scanning from the top instead of a full per-call scan.  The
        # order is content-derived (a proposer's VRF value for a view is
        # deterministic and verified), so with a shared chain the sorted
        # list is interned once per run or shard rather than once per
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
        # The delivered log's membership (the tree stores none): its
        # tip's depth on a decided index whose path holds that tip.  The
        # index is the chain's one, which every process on the decided
        # path shares, until a decision leaves its path; a private tree
        # has its own.
        self._decided = chain.decided if chain is not None else DecidedIndex(self.tree)
        self._delivered_depth = 0
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
            self._adopted.discard(self._proposal_floor)
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
        adopted = self._adopted
        index = self._proposal_index
        for view, resolved in table.by_view.items():
            # Below the prune floor nothing can consult the proposal.
            if view < self._proposal_floor or view > latest_view:
                continue
            held = proposals.get(view)
            if held is None:
                # Adopted by reference, as the vote store adopts a round.
                proposals[view] = resolved
                adopted.add(view)
            else:
                if view in adopted:
                    held = proposals[view] = dict(held)
                    adopted.discard(view)
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
        the GA started in ``ga_round`` — all Algorithm 1 reads of it —
        kept in :attr:`ga_reads`."""
        read = self._ga.longest(max(0, ga_round - self.eta), ga_round)
        pairs = self._read_pairs.get(ga_round)
        if pairs is None:
            pairs = self._read_pairs[ga_round] = {}
            horizon = ga_round - self.eta
            for stale in [g for g in self._read_pairs if g < horizon]:
                del self._read_pairs[stale]
        pair = pairs.get(id(read))
        if pair is None:
            pair = pairs[id(read)] = (ga_round, read)
        self.ga_reads.append(pair)
        return read

    def _ga_output(self, ga_round: int) -> GAOutput:
        """The same GA's full output, enumerated (what the suites inspect)."""
        return self._ga.output(max(0, ga_round - self.eta), ga_round)

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
        # Exclude everything on the parent's path: the delivered log
        # plus the (short) undelivered segment above the delivered tip —
        # or, when the parent does not extend the delivered tip, the
        # whole path, walked.
        tree = self.tree
        exclude: Set[str] = frozenset()
        decided = NONE_DECIDED
        if parent in tree:
            if tree.is_prefix(self.delivered_tip, parent):
                exclude = tree.payload_ids(parent, above=self.delivered_tip)
                decided = self._delivered()
            else:
                exclude = tree.payload_ids(parent)
        payload = self.mempool.take(BLOCK_CAPACITY, exclude, decided=decided)
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
        # The delivered tip is on the index's path, so a tip off that
        # path either extends the delivered log past a conflicting
        # decision of another process, or conflicts with the delivered
        # log itself (recorded faithfully): either way this process
        # starts an index of its own at ``tip``.
        if not self._decided.advance(tip):
            self._decided = self._decided.rebuilt(tip)
        self.delivered_tip = tip
        self._delivered_depth = self.tree.depth(tip)
        # The whole delivered log, not the new segment: a transaction
        # re-offered after its delivery is swept out too.
        self.mempool.mark_included(decided=self._delivered())

    def _delivered(self) -> Decided:
        return self._decided.depths, self._delivered_depth

    @property
    def delivered_ids(self) -> frozenset[str]:
        """Ids of every transaction in the delivered log (for tests and
        analysis: the protocol tests membership on the decided index)."""
        depth = self._delivered_depth
        return frozenset(tx_id for tx_id, at in self._decided.depths.items() if at <= depth)

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


def resilient_factory(eta: int, beta: Fraction = DEFAULT_BETA) -> ProcessFactory:
    """A :data:`~repro.sleepy.process.ProcessFactory` for Algorithm 1 with this η."""

    def factory(
        pid: int, key: SecretKey, verifier: IngestPipeline, chain: SharedChain | None = None
    ) -> SleepyTOBProcess:
        return SleepyTOBProcess(pid, key, verifier, eta=eta, beta=beta, chain=chain)

    factory.supports_shared_chain = True
    return factory


_MISSING = object()
