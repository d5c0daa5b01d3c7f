"""The canonical attack scripts the grid, CLI, and CI sweep.

Each entry is a module-level builder ``(n, **params) -> AttackScript``
(module level so scripts stay picklable through sweeps), sized relative
to the run's ``n``; every parameter has a default, so ``builder(n)`` is
the script the attack matrices run.  Every strategy the experiments use
is one of them.  ``byz`` (default: the top fifth of the pids) is who
gets corrupted — comfortably below β̃ for mild churn, so what an attack
achieves is attributable to what it does, not to an oversized adversary.

A script whose :meth:`~repro.attacks.script.AttackScript.requires` is
empty runs as written on every substrate: the round simulator pins it
bit-identically run to run and the deployments replay it with the proxy
transport on any process count.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

from repro.attacks.script import (
    AttackScript,
    corrupt,
    drop,
    equivocate,
    heal,
    partition,
    phase,
    propose,
    sleep,
    split_vote,
    surge,
    vote_for,
    wake,
    withhold,
)


def _halves(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(n // 2)), tuple(range(n // 2, n))


def _corrupted(n: int, byz: Sequence[int] | None) -> tuple[int, ...]:
    return tuple(range(n - max(1, n // 5), n)) if byz is None else tuple(byz)


def partition_heal(n: int) -> AttackScript:
    """Split the network in two halves, then heal."""
    left, right = _halves(n)
    return AttackScript(
        name="partition-heal",
        phases=(
            phase(4),
            phase(4, partition(left, right)),
            phase(8, heal()),
        ),
    )


def surge_recover(n: int) -> AttackScript:
    """A global latency surge, then recovery."""
    return AttackScript(
        name="surge-recover",
        phases=(
            phase(4),
            phase(4, surge()),
            phase(8, heal()),
        ),
    )


def partition_surge(n: int) -> AttackScript:
    """The acceptance scenario: partition → heal → surge → heal."""
    left, right = _halves(n)
    return AttackScript(
        name="partition-surge",
        phases=(
            phase(4),
            phase(3, partition(left, right)),
            phase(5, heal()),
            phase(3, surge()),
            phase(9, heal()),
        ),
    )


def lossy_links(n: int) -> AttackScript:
    """Probabilistic loss on every link for a window, then heal."""
    return AttackScript(
        name="lossy-links",
        phases=(
            phase(4),
            phase(4, drop(None, None, 0.3)),
            phase(8, heal()),
        ),
    )


def equivocation_storm(n: int) -> AttackScript:
    """Corrupt a fifth of the processes; they equivocate behind a partition."""
    left, right = _halves(n)
    return AttackScript(
        name="equivocation-storm",
        phases=(
            phase(4, corrupt(*_corrupted(n, None))),
            phase(4, partition(left, right), equivocate()),
            phase(8, heal()),
        ),
    )


def sleep_storm(n: int) -> AttackScript:
    """A third of the honest processes sleeps through a surge, then wakes."""
    sleepers = tuple(range(max(1, n // 3)))
    return AttackScript(
        name="sleep-storm",
        phases=(
            phase(4, sleep(*sleepers)),
            phase(4, surge()),
            phase(8, heal(), wake(*sleepers)),
        ),
    )


def split_vote_script(
    n: int, pi: int = 1, target_round: int = 10, byz: Sequence[int] | None = None
) -> AttackScript:
    """The paper's agreement attack: π asynchronous rounds ending in a split vote.

    The period is ``[target_round − π + 1, target_round]``.  Its last
    round is the split vote, receivers grouped by pid parity; the rounds
    before are a blackout, so honest votes age out of the expiration
    window — the attack works exactly when the period outlasts η
    (Theorem 2's boundary).
    """
    starve = (phase(pi - 1, withhold()),) if pi > 1 else ()
    return AttackScript(
        name="split-vote",
        phases=(
            phase(target_round - pi + 1, corrupt(*_corrupted(n, byz))),
            *starve,
            phase(1, split_vote(range(0, n, 2), range(1, n, 2))),
            phase(8),
        ),
    )


def blackout_script(n: int, pi: int = 3, ra: int = 5) -> AttackScript:
    """Nothing is delivered during ``[ra + 1, ra + π]``, then everything is.

    The simplest liveness attack the model allows: safety must hold
    throughout and decisions resume after the heal (Theorem 3).
    """
    return AttackScript(
        name="blackout",
        phases=(phase(ra + 1), phase(pi, withhold()), phase(9, heal())),
    )


def crash_script(n: int, byz: Sequence[int] | None = None, from_round: int = 4) -> AttackScript:
    """``byz`` fall silent from ``from_round`` on (corruption is for good)."""
    warm_up = (phase(from_round),) if from_round else ()
    return AttackScript(name="crash", phases=(*warm_up, phase(12, corrupt(*_corrupted(n, byz)))))


def stale_votes_script(
    n: int, byz: Sequence[int] | None = None, from_round: int = 4, rounds: int = 16
) -> AttackScript:
    """``byz`` vote the empty log, then the deepest tip as of ``from_round`` forever.

    Honest sleepers leaving at ``from_round`` leave votes that linger
    for η rounds; the adversary keeps voting the branch they left (the
    stale-vote amplification ablation).
    """
    return AttackScript(
        name="stale-votes",
        phases=(
            phase(from_round, corrupt(*_corrupted(n, byz)), vote_for(None)),
            phase(rounds - from_round, vote_for("stale")),
        ),
    )


def proposer_script(
    n: int, mode: str = "stale", byz: Sequence[int] | None = None, rounds: int = 16
) -> AttackScript:
    """``byz`` enter every view's sortition with a ``mode`` log (see ``propose``)."""
    return AttackScript(
        name=f"{mode}-proposer",
        phases=(phase(rounds, corrupt(*_corrupted(n, byz)), propose(mode)),),
    )


ATTACKS: dict[str, Callable[..., AttackScript]] = {
    "partition-heal": partition_heal,
    "surge-recover": surge_recover,
    "partition-surge": partition_surge,
    "lossy-links": lossy_links,
    "equivocation-storm": equivocation_storm,
    "sleep-storm": sleep_storm,
    "split-vote": split_vote_script,
    "blackout": blackout_script,
    "crash": crash_script,
    "stale-votes": stale_votes_script,
    "stale-proposer": proposer_script,
    "conflicting-proposer": partial(proposer_script, mode="conflicting"),
}


def get_script(name: str, n: int, **params) -> AttackScript:
    """Build the named script for an ``n``-process run (``params``: the builder's own)."""
    try:
        builder = ATTACKS[name]
    except KeyError:
        known = ", ".join(sorted(ATTACKS))
        raise ValueError(f"unknown attack script {name!r} (known: {known})") from None
    return builder(n, **params)
