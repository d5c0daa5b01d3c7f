"""Batch admission ≡ per-message admission.

``SleepyTOBProcess.receive_batch`` merges a delivery's resolved
:meth:`~repro.sleepy.messages.VerifiedBatch.proposal_table` and offers
its blocks as one run; a caught-up ``ChainView`` takes such a run by
moving its watermark.  The rule that defines what all of that must
amount to is the per-message loop below — one proposal at a time, in
delivery order — which lives *only here*, as the oracle: the same
seeded deliveries go to a process and to its per-message twin, and
after every delivery everything admission touches must be equal.
"""

import random
from bisect import insort

import pytest

from repro.chain.block import Block, genesis_block
from repro.chain.shared import ChainView, SharedChain
from repro.chain.store import DEFAULT_ORPHANS_PER_SOURCE, BlockBuffer
from repro.crypto.signatures import KeyRegistry
from repro.engine.ingest import IngestPipeline
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.messages import make_propose

N = 8
FLOODER = N - 1
_MISSING = object()


class PerMessageProcess(SleepyTOBProcess):
    """The oracle: admission as one rule per proposal, in delivery order."""

    def _record_proposals(self, batch, round_number):
        for message in batch.proposes:
            if message.view > round_number // 2 + 1:
                continue  # future-view chaff: neither proposal nor block
            self._buffer.offer(message.block, source=message.sender)
            if message.view < self._proposal_floor:
                continue
            per_view = self._proposals.setdefault(message.view, {})
            existing = per_view.get(message.sender, _MISSING)
            if existing is _MISSING:
                per_view[message.sender] = message
                seen, order = self._proposal_index.setdefault(message.view, (set(), []))
                if message.sender not in seen:
                    seen.add(message.sender)
                    insort(order, (message.vrf.value_num, message.sender))
            elif existing is not None and existing.tip != message.tip:
                per_view[message.sender] = None


def scripted_rounds(registry, seed, rounds=36):
    """``(round, published, delivered)`` steps of a seeded hostile run.

    ``published`` are the proposals minted in the step, in the order a
    simulator would intern their blocks; ``delivered`` is the tuple the
    caught-up receiver gets — which may hold back a parent for a later
    step, repeat an earlier tuple, or carry chaff.
    """
    rng = random.Random(seed)
    genesis = genesis_block()
    key = registry.secret_key

    def proposal(pid, r, view, parent, salt=None):
        salt = rng.randrange(1 << 30) if salt is None else salt
        block = Block(parent=parent, proposer=pid, view=view, salt=salt)
        return make_propose(registry, key(pid), r, view, block)

    steps = [(0, (), tuple(make_propose(registry, key(p), 0, 1, genesis) for p in range(N)))]
    known = [genesis.block_id]
    head = genesis.block_id
    held_back: list = []
    for r in range(2, rounds, 2):
        view = r // 2 + 1
        minted, delivered = [], []
        clean = r < 10  # a few untroubled views first: the run path must fire
        for pid in range(N - 1):
            roll = rng.random()
            if not clean and roll < 0.15:
                continue
            parent = head if clean or roll < 0.8 else rng.choice(known)
            message = proposal(pid, r, view, parent)
            minted.append(message)
            if not clean and rng.random() < 0.12:
                held_back.append(message)  # its children will arrive first
            else:
                delivered.append(message)
            if not clean and rng.random() < 0.15:  # equivocation inside the batch
                twin = proposal(pid, r, view, parent)
                minted.append(twin)
                delivered.append(twin)
        head = minted[0].tip
        known.extend(message.tip for message in minted)
        if not clean:
            if rng.random() < 0.4:  # a future-view proposal rides along
                chaff = proposal(FLOODER, r, view + 5, head)
                minted.append(chaff)
                delivered.insert(rng.randrange(len(delivered) + 1), chaff)
            if rng.random() < 0.4:  # below the prune floor, carrying a fresh block
                late = proposal(rng.randrange(N - 1), r, 1, genesis.block_id)
                minted.append(late)
                delivered.append(late)
            if held_back and rng.random() < 0.5:
                delivered.append(held_back.pop(0))
        steps.append((r, tuple(minted), tuple(delivered)))
        if not clean:
            extra = []
            if rng.random() < 0.5:  # equivocation across two deliveries…
                pid = rng.randrange(N - 1)
                extra.append(proposal(pid, r + 1, view, head))
                if rng.random() < 0.5:  # …the second of which equivocates itself
                    extra.append(proposal(pid, r + 1, view, head))
            if r == rounds - 8:  # one sender floods past its orphan quota
                ghost = "ab" * 32
                extra += [
                    proposal(FLOODER, r + 1, view, ghost, salt=i)
                    for i in range(DEFAULT_ORPHANS_PER_SOURCE + 8)
                ]
            if extra:
                known.extend(m.tip for m in extra if m.block.parent in known)
                steps.append((r + 1, tuple(extra), tuple(extra)))
            if rng.random() < 0.3:  # a duplicate redelivery
                steps.append((r + 1, (), steps[-1][2]))
    if held_back:
        steps.append((rounds, (), tuple(held_back)))
    return steps


def admission_state(process, universe):
    """Everything admission touches, in comparable form."""
    buffer = process._buffer
    return {
        "proposals": {view: dict(held) for view, held in process._proposals.items()},
        "order": {
            view: (set(seen), list(order))
            for view, (seen, order) in process._proposal_index.items()
        },
        "visible": {block_id for block_id in universe if block_id in process.tree},
        "size": len(process.tree),
        "tips": process.tree.tips(),
        "orphans": buffer.orphan_ids(),
        "vouches": {source: list(bucket) for source, bucket in buffer._by_source.items()},
        "equivocators": process.detected_equivocators(),
    }


class Side:
    """One implementation's receivers: ``a`` gets every delivery as it
    comes, ``b`` sleeps through some and catches up from one list."""

    def __init__(self, cls, registry, pipeline, shared):
        self.chain = SharedChain() if shared else None
        # The simulator interns every published block, losslessly.
        self.interner = BlockBuffer(self.chain.tree, None) if shared else None
        self.a, self.b = (
            cls(pid, registry.secret_key(pid), pipeline, eta=4, chain=self.chain)
            for pid in (0, 1)
        )

    def publish(self, messages):
        if self.interner is not None:
            for message in messages:
                self.interner.offer(message.block)


@pytest.mark.parametrize("shared", [True, False], ids=["chain-views", "private-trees"])
@pytest.mark.parametrize("seed", range(6))
def test_batch_admission_equals_the_per_message_rule(seed, shared, monkeypatch):
    registry = KeyRegistry(N, run_seed=seed)
    pipeline = IngestPipeline(registry)
    subject = Side(SleepyTOBProcess, registry, pipeline, shared)
    oracle = Side(PerMessageProcess, registry, pipeline, shared)

    runs_taken = []
    add_run = ChainView.add_run

    def spying_add_run(view, run):
        runs_taken.append(add_run(view, run))
        return runs_taken[-1]

    monkeypatch.setattr(ChainView, "add_run", spying_add_run)

    rng = random.Random(1000 + seed)
    universe: set = set()
    missed: list = []
    for step, (r, minted, delivered) in enumerate(scripted_rounds(registry, seed)):
        universe.update(message.tip for message in minted)
        for side in (subject, oracle):
            side.publish(minted)
        if minted and rng.random() < 0.5:
            # The receiver proposed one of these itself: its block is
            # already in its tree (above the watermark) when the batch lands.
            own = rng.choice(minted).block
            for side in (subject, oracle):
                if own.parent in side.a.tree:
                    side.a._buffer.offer(own)
        for side in (subject, oracle):
            side.a.receive_batch(r, pipeline.batch(delivered))
        assert admission_state(subject.a, universe) == admission_state(oracle.a, universe), step

        missed.extend(delivered)
        if rng.random() < 0.6:  # b is awake: everything it slept through, as one list
            for side in (subject, oracle):
                side.b.receive_batch(r, pipeline.batch(list(missed)))
            missed.clear()
        assert admission_state(subject.b, universe) == admission_state(oracle.b, universe), step

    if shared:
        assert runs_taken.count(True) >= 4  # the watermark path was exercised…
        assert runs_taken.count(False) >= 4  # …and so was the fallback
        assert subject.a.tree._extra == oracle.a.tree._extra
        assert subject.a.tree._floor == oracle.a.tree._floor
    assert subject.a._buffer.orphan_ids()  # the flood left orphans behind on both
