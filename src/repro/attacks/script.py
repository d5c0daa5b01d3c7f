"""The scheduled-attack DSL: fault injection as data.

A script is a sequence of phases::

    script = AttackScript(
        name="partition-heal",
        phases=(
            phase(4),                                   # benign warm-up
            phase(3, partition((0, 1, 2), (3, 4, 5))),  # split brain
            phase(5, heal()),                           # recover
        ),
    )

Each :func:`phase` lasts a fixed number of rounds and applies its ops on
entry.  Ops compose a small state machine:

* **Delivery ops** — :func:`partition`, :func:`surge`, :func:`drop`,
  :func:`withhold` — degrade the network and *persist until*
  :func:`heal`.  Rounds in which any delivery op is active are the
  script's asynchronous rounds: the round simulator consults the
  adversary's delivery choice there
  (:class:`~repro.attacks.adversary.ScriptedAdversary`), and the
  deployment's :class:`~repro.net.proxy_transport.ProxyTransport`
  delays, drops, or holds the affected frames physically.
* **Behaviour ops** — what the corrupted processes *send*, one at a time
  (the latest wins) until heal: :func:`equivocate` (fork the deepest tip
  and double-vote every round), :func:`vote_for` (vote one chosen tip
  every round), :func:`propose` (abuse proposer sortition); without one
  they stay silent — crash faults.  :func:`split_vote` is both kinds at
  once and owns exactly one round: the paper's agreement attack.
* **Participation ops** — :func:`corrupt` (cumulative: the
  growing-adversary model) and :func:`sleep`/:func:`wake` (honest
  participation).  Corruption and sleepiness persist beyond the script's
  end; delivery and behaviour end with the last phase (an implicit heal).

Everything is a frozen dataclass: scripts pickle across process
boundaries unchanged and :func:`~repro.engine.spec.stable_digest`
derives one content digest per script, so attacks ride the sweep
journal like any other grid axis.

The model constraint the DSL enforces up front: an asynchronous period
starts no earlier than round 1 (``ra ≥ 0`` in the paper's ``[ra+1,
ra+π]``), so the first phase of a script must be benign in its delivery
behaviour — give the run at least one synchronous warm-up round.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.engine.conditions import (
    DEFAULT_SURGE_FACTOR,
    AsyncPeriod,
    NetworkConditions,
    check_surge_factor,
)
from repro.engine.spec import stable_digest


# ----------------------------------------------------------------------
# Ops (frozen records; the lowercase constructors below are the grammar)
# ----------------------------------------------------------------------
def _disjoint(groups: tuple[tuple[int, ...], ...], what: str) -> None:
    seen: set[int] = set()
    for group in groups:
        for pid in group:
            if pid in seen:
                raise ValueError(f"{what} groups overlap on pid {pid}")
            seen.add(pid)


class _Op:
    """Class-level facts about an op record (not fields: they stay out of digests)."""

    #: The grammar word; errors name an op by it.
    op = ""
    #: What realising the op takes of a substrate (:meth:`AttackScript.requires`).
    needs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PartitionOp(_Op):
    """Split the network: messages cross group boundaries only on heal."""

    groups: tuple[tuple[int, ...], ...]
    op = "partition"

    def __post_init__(self) -> None:
        _disjoint(self.groups, "partition")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")


@dataclass(frozen=True)
class HealOp(_Op):
    """Clear every delivery effect and the corrupted processes' behaviour."""

    op = "heal"


@dataclass(frozen=True)
class SurgeOp(_Op):
    """Delay traffic: all links, or only the ``(src, dst)`` pairs listed.

    A deployment multiplies a surged link's draw by ``factor`` and
    refuses a listed pair that is no hop of its gossip overlay.
    """

    factor: float = DEFAULT_SURGE_FACTOR
    links: tuple[tuple[int, int], ...] | None = None
    op = "surge"

    def __post_init__(self) -> None:
        check_surge_factor(self.factor)


@dataclass(frozen=True)
class DropOp(_Op):
    """Drop each frame on matching links with probability ``p``.

    ``None`` for ``src``/``dst`` is a wildcard.  The deployment's proxy
    really discards matching frames (gossip's redundant paths are what
    keeps dissemination alive); the round simulator — whose bus *is* the
    dissemination abstraction — re-flips the coin each asynchronous
    round, so a dropped delivery is delayed, never lost, exactly the
    model's assumption.
    """

    src: int | None
    dst: int | None
    p: float
    op = "drop"
    needs = frozenset({"frame-loss"})

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class WithholdOp(_Op):
    """A blackout: nothing reaches anyone until heal (then all of it does)."""

    op = "withhold"


@dataclass(frozen=True)
class CorruptOp(_Op):
    """Hand the listed pids to the adversary (cumulative: never undone)."""

    pids: tuple[int, ...]
    op = "corrupt"


@dataclass(frozen=True)
class EquivocateOp(_Op):
    """Corrupted processes fork and double-vote each round until heal."""

    op = "equivocate"
    needs = frozenset({"signing"})


@dataclass(frozen=True)
class VoteForOp(_Op):
    """Corrupted processes vote for ``target`` every round until heal.

    ``"deepest"``: the deepest block anyone has created, read each round;
    ``"stale"``: that block as of the first round the op holds, pinned
    for the rest of the run; anything else is the tip itself (``None``:
    the empty log — a valid, if useless, vote).
    """

    target: str | None
    op = "vote_for"
    needs = frozenset({"signing"})


@dataclass(frozen=True)
class ProposeOp(_Op):
    """Corrupted processes propose an adversarial log each view until heal.

    Under their honest, verifiable VRF — proposer power is the only
    lever.  ``"conflicting"``: a fresh root block (Algorithm 1's "not
    conflicting with ``L_{v−1}``" filter must reject it whatever its
    VRF); ``"stale"``: the log ``[b0]``, a prefix of every honest chain
    (valid, but a view it wins decides nothing new).
    """

    mode: str
    op = "propose"
    needs = frozenset({"signing"})

    def __post_init__(self) -> None:
        if self.mode not in ("stale", "conflicting"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SplitVoteOp(_Op):
    """The paper's agreement attack on the original protocol, in one round.

    In a decision round (round 2 of a view) the corrupted processes fork
    the deepest block as of the round *before* (one minted in the attack
    round would reach the victims as an orphan), propose and vote
    **both** sides, and receiver group ``g`` is delivered side ``g``'s
    Byzantine messages and nothing else.  With current-round votes only,
    each group's perceived participation is the Byzantine vote count, so
    the groups decide conflicting logs whatever the corrupted share;
    under η-expiration they still hold unexpired honest votes (Theorem
    2) — unless the rounds before were withheld for longer than η.

    The op owns its round: it replaces the delivery rule and behaviour
    in force and ends with its phase.
    """

    groups: tuple[tuple[int, ...], tuple[int, ...]]
    op = "split_vote"
    needs = frozenset({"signing", "per-receiver-delivery"})

    def __post_init__(self) -> None:
        if len(self.groups) != 2:
            raise ValueError("a split vote has exactly two sides")
        _disjoint(self.groups, "split_vote")


@dataclass(frozen=True)
class SleepOp(_Op):
    """Put the listed pids to sleep (until a later ``wake``)."""

    pids: tuple[int, ...]
    op = "sleep"


@dataclass(frozen=True)
class WakeOp(_Op):
    """Wake the listed pids (undoes ``sleep``)."""

    pids: tuple[int, ...]
    op = "wake"


DeliveryOp = PartitionOp | SurgeOp | DropOp | WithholdOp | SplitVoteOp
BehaviourOp = EquivocateOp | VoteForOp | ProposeOp | SplitVoteOp
Op = DeliveryOp | BehaviourOp | HealOp | CorruptOp | SleepOp | WakeOp


# Ops whose fields are written as they are stored need no constructor:
# ``heal()``, ``drop(src, dst, p)``, ``vote_for("stale")``, ``propose("conflicting")``.
heal, withhold, equivocate = HealOp, WithholdOp, EquivocateOp
drop, vote_for, propose = DropOp, VoteForOp, ProposeOp


def partition(*groups: Sequence[int]) -> PartitionOp:
    """``partition((0,1,2), (3,4,5))`` — pids absent from every group form one implicit group."""
    return PartitionOp(groups=tuple(tuple(group) for group in groups))


def surge(
    factor: float = DEFAULT_SURGE_FACTOR, links: Sequence[tuple[int, int]] | None = None
) -> SurgeOp:
    """Latency surge on every link, or per-link with ``links=[(src, dst), ...]``."""
    resolved = tuple((s, d) for s, d in links) if links is not None else None
    return SurgeOp(factor=factor, links=resolved)


def corrupt(*pids: int) -> CorruptOp:
    """Corrupt processes (growing adversary: corruption accumulates)."""
    return CorruptOp(pids=tuple(pids))


def split_vote(*groups: Sequence[int]) -> SplitVoteOp:
    """One decision round: receivers in ``groups[g]`` see only fork ``g``'s votes."""
    return SplitVoteOp(groups=tuple(tuple(group) for group in groups))


def sleep(*pids: int) -> SleepOp:
    """Send honest processes to sleep."""
    return SleepOp(pids=tuple(pids))


def wake(*pids: int) -> WakeOp:
    """Wake previously slept processes."""
    return WakeOp(pids=tuple(pids))


def _named_pids(op: Op) -> Sequence[int]:
    """Every process id ``op`` spells out."""
    if isinstance(op, (CorruptOp, SleepOp, WakeOp)):
        return op.pids
    if isinstance(op, (PartitionOp, SplitVoteOp)):
        return [pid for group in op.groups for pid in group]
    if isinstance(op, DropOp):
        return [pid for pid in (op.src, op.dst) if pid is not None]
    if isinstance(op, SurgeOp):
        return [pid for link in op.links or () for pid in link]
    return ()


# ----------------------------------------------------------------------
# Phases and scripts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Phase:
    """``rounds`` rounds during which the state set by ``ops`` holds."""

    rounds: int
    ops: tuple[Op, ...] = ()

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("a phase must last at least one round")


def phase(rounds: int, *ops: Op) -> Phase:
    """One phase record: ``phase(3, partition((0, 1), (2, 3)))``."""
    return Phase(rounds=rounds, ops=tuple(ops))


@dataclass(frozen=True)
class AttackScript:
    """A named, declarative attack schedule (a tuple of phases)."""

    name: str
    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a script needs at least one phase")
        first = self.phases[0]
        if any(isinstance(op, DeliveryOp) for op in first.ops):
            raise ValueError(
                "the first phase must be benign in delivery (asynchronous "
                "periods start at round 1 at the earliest — add a warm-up phase)"
            )

    @property
    def total_rounds(self) -> int:
        """Rounds covered by the script's phases."""
        return sum(p.rounds for p in self.phases)

    def digest(self) -> str:
        """The script's stable content digest (sweep-journal key material)."""
        return stable_digest(self)

    def timeline(self) -> ScriptTimeline:
        """Resolve the phase records into per-round network/behaviour state."""
        return ScriptTimeline(self)

    def requires(self) -> frozenset[str]:
        """What the script asks of a substrate beyond delaying frames.

        A subset of ``{"signing", "per-receiver-delivery", "frame-loss"}``
        (the union of its ops' ``needs``); empty means every fabric
        realises the script as written.
        """
        return frozenset().union(*(op.needs for p in self.phases for op in p.ops))

    def validate(self, n: int) -> None:
        """Every pid named exists, and a ``split_vote`` phase is one even round."""
        start = 0
        for record in self.phases:
            for op in record.ops:
                for pid in _named_pids(op):
                    if not 0 <= pid < n:
                        raise ValueError(f"{op.op} names pid {pid}, but the run has n={n}")
                if isinstance(op, SplitVoteOp) and (record.rounds != 1 or start % 2):
                    raise ValueError(
                        "split_vote owns one decision round (an even one), "
                        f"not rounds {start}..{start + record.rounds - 1}"
                    )
            start += record.rounds

    def conditions(self) -> NetworkConditions:
        """The script's asynchronous periods as substrate-neutral conditions.

        Surge factors are fixed at 1.0 here on purpose: the *scripted*
        realisation of asynchrony (adversarial delivery on the
        simulator, the proxy transport on deployments) applies the
        script's own factor, on the links its ``surge`` lists, so a
        period factor here would stretch the same draws twice — and on
        every link.
        """
        timeline = self.timeline()
        periods: list[AsyncPeriod] = []
        run_start: int | None = None
        for r in range(self.total_rounds + 1):
            active = r < self.total_rounds and timeline.state_at(r).delivery_active
            if active and run_start is None:
                run_start = r
            elif not active and run_start is not None:
                periods.append(AsyncPeriod(ra=run_start - 1, pi=r - run_start, surge_factor=1.0))
                run_start = None
        return NetworkConditions(periods=tuple(periods))


# ----------------------------------------------------------------------
# Timeline: the resolved state machine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseState:
    """The network/behaviour state holding during one phase."""

    index: int
    start: int
    #: pid → partition group (pids absent from every declared group share
    #: the implicit group ``-1``); ``None`` = no partition.
    group_of: dict[int, int] | None
    surge_factor: float
    #: Links the surge covers; ``None`` = every link (when surging).
    surge_links: frozenset[tuple[int, int]] | None
    drops: tuple[DropOp, ...]
    withheld: bool
    #: What the corrupted processes send (``None``: nothing — crash faults).
    behaviour: BehaviourOp | None
    corrupted: frozenset[int]
    sleeping: frozenset[int]

    @property
    def delivery_active(self) -> bool:
        return (
            self.group_of is not None
            or self.surge_factor > 1.0
            or bool(self.drops)
            or self.withheld
            or isinstance(self.behaviour, SplitVoteOp)
        )

    def blocks(self, src: int, dst: int) -> bool:
        """Whether a blackout or the current partition keeps ``src`` from ``dst``."""
        if self.withheld:
            return True
        if self.group_of is None:
            return False
        return self.group_of.get(src, -1) != self.group_of.get(dst, -1)

    def surged(self, src: int, dst: int) -> bool:
        """Whether the ``src → dst`` link is currently surged."""
        if self.surge_factor <= 1.0:
            return False
        return self.surge_links is None or (src, dst) in self.surge_links

    def drop_probability(self, src: int, dst: int) -> float:
        """Combined loss probability on ``src → dst`` (independent rules)."""
        keep = 1.0
        for rule in self.drops:
            if (rule.src is None or rule.src == src) and (rule.dst is None or rule.dst == dst):
                keep *= 1.0 - rule.p
        return 1.0 - keep


_QUIESCENT = {
    "group_of": None,
    "surge_factor": 1.0,
    "surge_links": None,
    "drops": (),
    "withheld": False,
    "behaviour": None,
}


class ScriptTimeline:
    """Per-round resolution of an :class:`AttackScript`.

    One :class:`PhaseState` per phase, plus a trailing quiescent state
    for rounds past the script's end: delivery effects and behaviour
    cease (an implicit heal), corruption and sleepiness persist.
    """

    def __init__(self, script: AttackScript) -> None:
        self.script = script
        states: list[PhaseState] = []
        start = 0
        state = PhaseState(
            index=0,
            start=0,
            corrupted=frozenset(),
            sleeping=frozenset(),
            **_QUIESCENT,
        )
        for index, phase_record in enumerate(script.phases):
            state = self._apply(state, phase_record.ops, index=index, start=start)
            states.append(state)
            start += phase_record.rounds
        # The implicit trailing heal (index == len(phases)).
        states.append(
            replace(state, index=len(script.phases), start=start, **_QUIESCENT)
        )
        self._states = tuple(states)
        self._starts = tuple(s.start for s in states)
        self.total_rounds = script.total_rounds

    @staticmethod
    def _apply(state: PhaseState, ops: tuple[Op, ...], index: int, start: int) -> PhaseState:
        updates: dict = {"index": index, "start": start}
        if isinstance(state.behaviour, SplitVoteOp):
            updates.update(_QUIESCENT)  # the split vote ended with its phase
        for op in ops:
            if isinstance(op, (HealOp, SplitVoteOp)):
                updates.update(_QUIESCENT)
                if isinstance(op, SplitVoteOp):
                    updates["behaviour"] = op
            elif isinstance(op, PartitionOp):
                updates["group_of"] = {
                    pid: g for g, group in enumerate(op.groups) for pid in group
                }
            elif isinstance(op, SurgeOp):
                updates["surge_factor"] = op.factor
                updates["surge_links"] = (
                    frozenset(op.links) if op.links is not None else None
                )
            elif isinstance(op, DropOp):
                updates["drops"] = updates.get("drops", state.drops) + (op,)
            elif isinstance(op, CorruptOp):
                updates["corrupted"] = (
                    updates.get("corrupted", state.corrupted) | frozenset(op.pids)
                )
            elif isinstance(op, WithholdOp):
                updates["withheld"] = True
            elif isinstance(op, (EquivocateOp, VoteForOp, ProposeOp)):
                updates["behaviour"] = op
            elif isinstance(op, SleepOp):
                updates["sleeping"] = (
                    updates.get("sleeping", state.sleeping) | frozenset(op.pids)
                )
            elif isinstance(op, WakeOp):
                updates["sleeping"] = (
                    updates.get("sleeping", state.sleeping) - frozenset(op.pids)
                )
            else:  # pragma: no cover - the Op union is closed
                raise TypeError(f"unknown op {op!r}")
        return replace(state, **updates)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def states(self) -> tuple[PhaseState, ...]:
        """All phase states, trailing quiescent state included."""
        return self._states

    def state_at(self, round_number: int) -> PhaseState:
        """The state holding during ``round_number`` (clamped past the end)."""
        if round_number < 0:
            raise ValueError("rounds are non-negative")
        return self._states[bisect_right(self._starts, round_number) - 1]

    def corrupted_at(self, round_number: int) -> frozenset[int]:
        return self.state_at(round_number).corrupted

    def sleeping_at(self, round_number: int) -> frozenset[int]:
        return self.state_at(round_number).sleeping


def drop_rng(seed: int, round_number: int, receiver: int) -> random.Random:
    """The seeded coin stream for one receiver's deliveries in one round.

    Fresh per ``(seed, round, receiver)`` so delivery randomness never
    depends on global draw order — two runs of the same script flip
    identical coins, which is what makes scripted attacks journalable.
    """
    return random.Random(f"attack-drop:{seed}:{round_number}:{receiver}")


def apply_script(spec, script: AttackScript):
    """Compose ``script`` onto a benign :class:`~repro.engine.spec.RunSpec`.

    Returns a new spec with the scripted adversary installed, the
    script's asynchronous periods merged into the conditions, and —
    when the script sleeps processes — the participation schedule
    wrapped.  The base spec must not already carry an adversary (the
    script owns that seam), and the script must make sense at the spec's
    ``n`` (:meth:`AttackScript.validate`).
    """
    # Local: repro.attacks.adversary imports this module's op records.
    from repro.attacks.adversary import ScriptedAdversary, ScriptSchedule

    if spec.adversary is not None:
        raise ValueError("apply_script needs a spec without an adversary (the script is one)")
    script.validate(spec.n)
    conditions = NetworkConditions(
        periods=spec.resolved_conditions().periods + script.conditions().periods
    )
    schedule = spec.schedule
    if any(isinstance(op, (SleepOp, WakeOp)) for p in script.phases for op in p.ops):
        schedule = ScriptSchedule(spec.n, spec.resolved_schedule(), script)
    return replace(
        spec,
        adversary=ScriptedAdversary(script, seed=spec.seed),
        conditions=conditions,
        schedule=schedule,
        meta={**spec.meta, "attack": script.name},
    )
