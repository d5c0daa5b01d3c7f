"""The script interpreter for the round simulator.

:class:`ScriptedAdversary` turns an
:class:`~repro.attacks.script.AttackScript` into the three powers of the
model's adversary (:mod:`repro.sleepy.adversary`):

* **corruption** — the timeline's cumulative ``corrupt`` sets (monotone,
  i.e. the growing-adversary model);
* **arbitrary messages** — what the phase's behaviour op says the
  corrupted processes send (``equivocate``/``split_vote`` fork a tip and
  double-vote, ``vote_for`` votes one tip, ``propose`` enters sortition
  with an adversarial log); with none they stay silent — crash faults;
* **delivery control** — during the script's asynchronous rounds the
  adversary withholds everything (``withhold``) or what crosses a
  partition or a surged link (it flows again when the effect lifts —
  delayed, never forged), flips seeded per-link coins for ``drop``
  rules, and in a ``split_vote`` round hands each receiver group its
  side of the fork and nothing else.

The interpreter holds no run state: what a run makes it remember lives
in :attr:`~repro.sleepy.adversary.AdversaryContext.memory`.
:class:`ScriptSchedule` applies the script's ``sleep``/``wake`` ops on
top of the run's base participation schedule.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.attacks.script import (
    AttackScript,
    EquivocateOp,
    ProposeOp,
    SplitVoteOp,
    VoteForOp,
    drop_rng,
)
from repro.chain.block import GENESIS_TIP, BlockId, genesis_block
from repro.sleepy.adversary import Adversary, AdversaryContext
from repro.sleepy.messages import Message
from repro.sleepy.schedule import SleepSchedule


def _double_vote(
    ctx: AdversaryContext, r: int, byz: Sequence[int], view: int, parent: BlockId | None
) -> tuple[tuple[BlockId, ...], list[Message]]:
    """Fork ``parent``; every corrupted pid proposes both sides, then votes both.

    Returns the two fork tips (none when nobody is corrupted) and the messages.
    """
    if not byz:
        return (), []
    forks = [ctx.craft_block(byz[0], view=view, parent=parent, salt=salt) for salt in (1, 2)]
    messages: list[Message] = []
    for pid in byz:
        messages += [ctx.craft_propose(pid, r, view, block) for block in forks]
        messages += [ctx.craft_vote(pid, r, block.block_id) for block in forks]
    return tuple(block.block_id for block in forks), messages


class ScriptedAdversary(Adversary):
    """Interpret an :class:`~repro.attacks.script.AttackScript` on the simulator."""

    def __init__(self, script: AttackScript, seed: int = 0) -> None:
        self.script = script
        self.seed = seed
        self.timeline = script.timeline()

    def byzantine(self, round_number: int) -> frozenset[int]:
        return self.timeline.corrupted_at(round_number)

    def send(self, round_number: int, ctx: AdversaryContext) -> Sequence[Message]:
        r, memory = round_number, ctx.memory
        ahead = self.timeline.state_at(r + 1)
        if isinstance(ahead.behaviour, SplitVoteOp) and ahead.start == r + 1:
            memory["split_parent"] = ctx.deepest_tip()
        state = self.timeline.state_at(r)
        behaviour, byz = state.behaviour, sorted(state.corrupted)
        if isinstance(behaviour, EquivocateOp):
            return _double_vote(ctx, r, byz, view=r + 1, parent=ctx.deepest_tip())[1]
        if isinstance(behaviour, SplitVoteOp):
            memory["split_sides"], messages = _double_vote(
                ctx, r, byz, view=r // 2, parent=memory["split_parent"]
            )
            return messages
        if isinstance(behaviour, VoteForOp):
            tip = behaviour.target
            if tip == "stale":
                if "stale_tip" not in memory:
                    memory["stale_tip"] = ctx.deepest_tip()
                tip = memory["stale_tip"]
            elif tip == "deepest":
                tip = ctx.deepest_tip()
            return [ctx.craft_vote(pid, r, tip) for pid in byz]
        if isinstance(behaviour, ProposeOp) and r % 2 == 0:  # round 2 of a view
            view, messages = r // 2 + 1, []
            for pid in byz:
                block = genesis_block()
                if behaviour.mode == "conflicting":
                    block = ctx.craft_block(pid, view, GENESIS_TIP, salt=r)
                messages.append(ctx.craft_propose(pid, r, view, block))
            return messages
        return ()

    def deliver(
        self,
        round_number: int,
        receiver: int,
        deliverable: Sequence[Message],
        ctx: AdversaryContext,
    ) -> Sequence[Message]:
        state = self.timeline.state_at(round_number)
        if not state.delivery_active:
            return deliverable
        if isinstance(state.behaviour, SplitVoteOp):
            for group, fork in zip(state.behaviour.groups, ctx.memory["split_sides"]):
                if receiver in group:
                    return [m for m in deliverable if m.tip == fork]
            return ()
        rng = drop_rng(self.seed, round_number, receiver)
        kept: list[Message] = []
        for message in deliverable:
            if state.blocks(message.sender, receiver):
                continue
            if state.surged(message.sender, receiver):
                continue
            p = state.drop_probability(message.sender, receiver)
            if p > 0.0 and rng.random() < p:
                # Withheld this round only: the bus keeps the message
                # pending and the coin is re-flipped next round — in the
                # round model a drop is a delay, exactly the asynchrony
                # assumption (contrast the proxy transport, which really
                # discards frames and leans on gossip redundancy).
                continue
            kept.append(message)
        return kept


class ScriptSchedule(SleepSchedule):
    """The base participation schedule minus the script's sleepers."""

    def __init__(self, n: int, base: SleepSchedule, script: AttackScript) -> None:
        super().__init__(n)
        self.base = base
        self.script = script
        self.timeline = script.timeline()

    def awake(self, round_number: int) -> frozenset[int]:
        return self.base.awake(round_number) - self.timeline.sleeping_at(round_number)
