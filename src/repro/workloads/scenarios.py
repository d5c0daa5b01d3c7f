"""Prebuilt experiment scenarios (one per paper claim).

Benches, examples, and integration tests share these constructors so
that "the attack from §1" or "the Ethereum outage" means exactly the
same configuration everywhere.

Every scenario is a :class:`~repro.engine.spec.RunSpec` (the engine's
substrate-independent run description, public as
:class:`~repro.harness.TOBRunConfig`): asynchronous periods are
expressed as :class:`~repro.engine.conditions.NetworkConditions`, so
the same scenario runs on the deterministic round simulator *and* —
where its powers exist physically — on the asyncio deployment backend.
Adversarial scenarios are attack scripts (:mod:`repro.attacks.library`)
applied to a benign spec; a script brings its own asynchronous periods.
"""

from __future__ import annotations

from fractions import Fraction

from repro.attacks import apply_script, get_script
from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig
from repro.protocols.graded_agreement import DEFAULT_BETA
from repro.workloads.participation import churn_walk, ethereum_may_2023
from repro.workloads.transactions import constant_rate_stream


def split_vote_attack_scenario(
    protocol: str,
    eta: int,
    pi: int = 1,
    n: int = 20,
    target_round: int = 10,
    tail_rounds: int = 14,
    beta: Fraction = DEFAULT_BETA,
    seed: int = 0,
) -> TOBRunConfig:
    """The §1 agreement attack: split-vote in an asynchronous decision round.

    The asynchronous window is ``[target_round − π + 1, target_round]``
    (i.e. ``ra = target_round − π``), so the attacked decision round is
    the window's last round.  A fifth of the processes are Byzantine —
    comfortably below β̃ for mild churn, so the attack's success against
    the original protocol is attributable to asynchrony, not to an
    oversized adversary.
    """
    return apply_script(
        TOBRunConfig(
            n=n,
            rounds=target_round + tail_rounds,
            protocol=protocol,
            eta=eta,
            beta=beta,
            seed=seed,
            meta={"scenario": "split-vote-attack", "pi": pi, "ra": target_round - pi},
        ),
        get_script("split-vote", n, pi=pi, target_round=target_round),
    )


def blackout_scenario(
    protocol: str,
    eta: int,
    pi: int,
    ra: int = 9,
    n: int = 12,
    rounds: int = 30,
    seed: int = 0,
) -> TOBRunConfig:
    """A π-round delivery blackout (liveness attack, Theorem 3 healing)."""
    return apply_script(
        TOBRunConfig(
            n=n,
            rounds=rounds,
            protocol=protocol,
            eta=eta,
            seed=seed,
            meta={"scenario": "blackout", "pi": pi, "ra": ra},
        ),
        get_script("blackout", n, pi=pi, ra=ra),
    )


def ethereum_outage_scenario(
    protocol: str = "resilient",
    eta: int = 4,
    n: int = 50,
    start: int = 10,
    duration: int = 20,
    rounds: int = 50,
    seed: int = 0,
) -> TOBRunConfig:
    """The May-2023 Ethereum outage replay (60% offline, then return)."""
    return TOBRunConfig(
        n=n,
        rounds=rounds,
        protocol=protocol,
        eta=eta,
        schedule=ethereum_may_2023(n, start=start, duration=duration),
        seed=seed,
        meta={"scenario": "ethereum-outage", "outage": (start, duration)},
    )


def churn_scenario(
    protocol: str,
    eta: int,
    gamma: float,
    n: int = 40,
    rounds: int = 60,
    byzantine: int = 0,
    seed: int = 0,
) -> TOBRunConfig:
    """Bounded-churn random participation with an optional silent adversary.

    Used by the Figure 1 empirical companion: pick γ and a Byzantine
    count at/below/above β̃(γ)·|O_r| and observe progress or stall.
    """
    # The walk covers all pids; corrupted pids are simply carved out of
    # H_r by the simulator (and kept permanently awake, as the model
    # requires).
    config = TOBRunConfig(
        n=n,
        rounds=rounds,
        protocol=protocol,
        eta=eta,
        schedule=churn_walk(n, eta, gamma, seed=seed),
        seed=seed,
        meta={"scenario": "churn", "gamma": gamma, "byzantine": byzantine},
    )
    if not byzantine:
        return config
    return apply_script(config, get_script("crash", n, byz=range(n - byzantine, n), from_round=0))


def surge_scenario(
    protocol: str = "resilient",
    eta: int = 4,
    ra: int = 7,
    pi: int = 2,
    surge_factor: float = 25.0,
    n: int = 10,
    rounds: int = 20,
    seed: int = 0,
) -> TOBRunConfig:
    """An asynchronous period with no Byzantine help, on either substrate.

    On the simulator the period is adversary-controllable delivery; on
    the deployment backend it is a ``surge_factor×`` latency spike.  The
    resilient protocol must stay safe through it and decide afterwards
    (Theorem 3 healing).
    """
    return TOBRunConfig(
        n=n,
        rounds=rounds,
        protocol=protocol,
        eta=eta,
        conditions=NetworkConditions.window(ra=ra, pi=pi, surge_factor=surge_factor),
        seed=seed,
        meta={"scenario": "surge", "pi": pi, "ra": ra},
    )


def throughput_scenario(
    protocol: str = "resilient",
    eta: int = 2,
    n: int = 10,
    rounds: int = 30,
    rate_per_round: int = 8,
    seed: int = 0,
) -> TOBRunConfig:
    """A steady client transaction load, on either substrate.

    Through the unified engine the same seeded arrival stream feeds the
    simulator's mempools and a deployment's — the throughput/latency
    analysis in :mod:`repro.analysis` applies to both traces.
    """
    return TOBRunConfig(
        n=n,
        rounds=rounds,
        protocol=protocol,
        eta=eta,
        transactions=constant_rate_stream(rate_per_round, rounds, seed=seed),
        seed=seed,
        meta={"scenario": "throughput", "rate_per_round": rate_per_round},
    )
