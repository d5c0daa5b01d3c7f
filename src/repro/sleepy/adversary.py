"""Adversaries: corruption, Byzantine messaging, and delivery control.

The model (paper §2.1, §2.3) grants the adversary exactly three powers,
and the simulator exposes exactly these three hooks:

1. **Corruption** — :meth:`Adversary.byzantine` names the corrupted set
   ``B_r`` each round.  Byzantine processes never sleep, and the
   adversary is *growing*: ``B_r ⊆ B_{r+1}`` (every substrate enforces
   it, :class:`~repro.engine.backend.CorruptionTracker`).
2. **Arbitrary messages** — :meth:`Adversary.send` crafts the messages
   Byzantine processes multicast in round ``r``.  The adversary holds
   only corrupted processes' keys, so everything it sends is signed as
   (some) corrupted process: forging honest messages is impossible.
3. **Delivery control during asynchrony** — :meth:`Adversary.deliver`
   picks, per receiver, an arbitrary *subset* of the deliverable
   messages in asynchronous rounds (the simulator enforces the subset
   property; the adversary cannot inject through this hook).

This module holds the interface (:class:`Adversary`,
:class:`AdversaryContext`, :class:`NullAdversary`) and the one strategy
that is not a schedule: :class:`RandomAdversary`, the fuzzer, whose
moves come from an RNG walk.  Every *scheduled* strategy — crash faults,
equivocation, stale votes, malicious proposers, blackouts, the paper's
split-vote attack — is an attack script (:mod:`repro.attacks`, builders
in :mod:`repro.attacks.library`) interpreted by the one
:class:`~repro.attacks.adversary.ScriptedAdversary`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.chain.block import GENESIS_TIP, Block, BlockId
from repro.chain.tree import BlockTree
from repro.crypto.signatures import KeyRegistry, SecretKey
from repro.sleepy.messages import Message, ProposeMessage, VoteMessage, make_propose, make_vote


class AdversaryContext:
    """Everything the adversary is allowed to see and do.

    The adversary has full knowledge of the system (it schedules sleep
    and corruption, and reads every message ever sent) but can only
    *sign* as corrupted processes.
    """

    def __init__(self, registry: KeyRegistry, tree: BlockTree) -> None:
        self._registry = registry
        self._keys: dict[int, SecretKey] = {}
        #: The omniscient block tree: all blocks created so far by anyone.
        self.tree = tree
        #: Every message multicast so far, in send order.
        self.all_messages: list[Message] = []
        #: Current round number (set by the simulator each phase).
        self.round: int = 0
        #: The strategy's scratch for this execution: what it remembers
        #: between hooks lives here, not on the :class:`Adversary` object
        #: (a spec must digest the same before and after it is executed).
        self.memory: dict = {}

    @property
    def registry(self) -> KeyRegistry:
        """The public-key registry (verification only)."""
        return self._registry

    def grant_key(self, pid: int) -> None:
        """Simulator hook: hand the adversary a corrupted process's key."""
        self._keys[pid] = self._registry.secret_key(pid)

    def key_of(self, pid: int) -> SecretKey:
        """The key of a *corrupted* process (raises for honest pids)."""
        try:
            return self._keys[pid]
        except KeyError:
            raise PermissionError(f"adversary does not hold the key of process {pid}") from None

    # ------------------------------------------------------------------
    # Crafting helpers (always signed as a corrupted process)
    # ------------------------------------------------------------------
    def craft_vote(self, pid: int, round_number: int, tip: BlockId | None) -> VoteMessage:
        """A vote signed by corrupted ``pid``."""
        return make_vote(self._registry, self.key_of(pid), round_number, tip)

    def craft_block(self, pid: int, view: int, parent: BlockId | None, salt: int = 0) -> Block:
        """A new block by corrupted ``pid`` extending ``parent``.

        ``salt`` differentiates conflicting sibling blocks minted by the
        same proposer in the same view.
        """
        block = Block(parent=parent, proposer=pid, view=view, salt=salt)
        self.tree.add(block)
        return block

    def craft_propose(self, pid: int, round_number: int, view: int, block: Block) -> ProposeMessage:
        """A propose message signed by corrupted ``pid`` carrying ``block``."""
        return make_propose(self._registry, self.key_of(pid), round_number, view, block)

    def deepest_tip(self) -> BlockId | None:
        """The deepest block anyone has created so far (genesis if none)."""
        tips = self.tree.tips()
        if not tips:
            return GENESIS_TIP
        return self.tree.longest(tips)


class Adversary(ABC):
    """Base class for adversary strategies.

    An instance describes a strategy and sits on a
    :class:`~repro.engine.spec.RunSpec`; what it learns while a run
    executes goes to :attr:`AdversaryContext.memory`.
    """

    @abstractmethod
    def byzantine(self, round_number: int) -> frozenset[int]:
        """``B_r``: the corrupted processes at round ``round_number``."""

    def send(self, round_number: int, ctx: AdversaryContext) -> Sequence[Message]:
        """Messages the Byzantine processes multicast in the send phase."""
        return ()

    def deliver(
        self,
        round_number: int,
        receiver: int,
        deliverable: Sequence[Message],
        ctx: AdversaryContext,
    ) -> Sequence[Message]:
        """Delivery choice for one receiver in an *asynchronous* round.

        Must return a subset of ``deliverable`` (the simulator enforces
        this).  The default delivers everything, i.e. an asynchronous
        round with a passive adversary behaves like a synchronous one.
        """
        return deliverable


class NullAdversary(Adversary):
    """No corruption at all."""

    def byzantine(self, round_number: int) -> frozenset[int]:
        return frozenset()


class RandomAdversary(Adversary):
    """A seeded, fully randomized adversary for fuzzing.

    Each round every corrupted process flips coins to: stay silent,
    vote for a random known tip, equivocate on two random tips, mint
    and propose a random block (possibly forking anywhere in the tree),
    or replay a stale round tag.  During asynchronous rounds, delivery
    to each receiver is an independent random subset.

    It is not *optimal* — it is an unbiased explorer of the adversary's
    action space, which is exactly what the randomized theorem checks
    want: whenever the executed trace happens to satisfy the paper's
    assumptions, the theorems must hold, no matter what this thing did.

    The walk *is* the object's state: its RNG advances as a run executes,
    so a spec holding one digests differently after the run than before
    (build a fresh one per run, as every grid does).
    """

    def __init__(self, pids: Sequence[int], seed: int = 0, drop_probability: float = 0.5) -> None:
        import random as _random

        self._pids = frozenset(pids)
        self._rng = _random.Random(seed)
        self._drop = drop_probability

    def byzantine(self, round_number: int) -> frozenset[int]:
        return self._pids

    def _random_tip(self, ctx: AdversaryContext) -> BlockId | None:
        tips = list(ctx.tree.tips())
        choices: list[BlockId | None] = [GENESIS_TIP, *tips]
        return self._rng.choice(choices)

    def send(self, round_number: int, ctx: AdversaryContext) -> Sequence[Message]:
        messages: list[Message] = []
        for pid in sorted(self._pids):
            action = self._rng.random()
            if action < 0.25:
                continue  # silent
            if action < 0.55:
                messages.append(ctx.craft_vote(pid, round_number, self._random_tip(ctx)))
            elif action < 0.75:
                messages.append(ctx.craft_vote(pid, round_number, self._random_tip(ctx)))
                messages.append(ctx.craft_vote(pid, round_number, self._random_tip(ctx)))
            elif action < 0.9:
                parent = self._random_tip(ctx)
                view = max(1, round_number // 2 + self._rng.randrange(0, 2))
                block = ctx.craft_block(pid, view=view, parent=parent, salt=self._rng.randrange(1 << 16))
                messages.append(ctx.craft_propose(pid, round_number, view, block))
            else:
                # A round-tag lie: sign a vote back-dated to an earlier
                # round.  Byzantine senders may mis-tag (the simulator
                # only polices honest tagging); receivers treat the tag
                # as the vote's round for latest/expiration purposes.
                stale_round = self._rng.randrange(0, round_number + 1)
                messages.append(
                    make_vote(ctx.registry, ctx.key_of(pid), stale_round, self._random_tip(ctx))
                )
        return messages

    def deliver(
        self,
        round_number: int,
        receiver: int,
        deliverable: Sequence[Message],
        ctx: AdversaryContext,
    ) -> Sequence[Message]:
        return [m for m in deliverable if self._rng.random() > self._drop]
