"""Asynchrony-resilient sleepy total-order broadcast — full reproduction.

Reproduces D'Amato, Losa & Zanolini, *Asynchrony-Resilient Sleepy
Total-Order Broadcast Protocols* (PODC 2024, arXiv:2309.05347): the
Malkhi–Momose–Ren dynamically available TOB, the paper's message
expiration mechanism (η), the extended graded agreement, the sleepy
round model with bounded asynchronous periods, and the analytic bounds
of Figure 1 — plus the simulation, analysis, and deployment substrates
needed to evaluate them.

Quick start::

    from fractions import Fraction
    import repro

    trace = repro.run_spec(repro.RunSpec(n=20, rounds=40, protocol="resilient", eta=3)).trace
    report = repro.check_safety(trace)
    assert report.ok

:func:`run_spec` is the one way to run a spec: on the round simulator
by default, or on any backend passed to it.  Code that steps a
simulation itself calls :class:`~repro.engine.sim_backend.
SimulationBackend`'s ``build`` and ``drive``.  See README.md for the
tour and the architecture.
"""

from repro.chain import Block, BlockTree, Log, Mempool, PrefixTally, Transaction
from repro.core.bounds import (
    beta_tilde,
    beta_tilde_one_third,
    eta_for_resilience,
    figure1_curve,
    gamma_for_beta_tilde,
    max_churn,
    max_resilient_pi,
)
from repro.core.expiration import LatestVoteStore
from repro.core.extended_ga import (
    ExtendedGAInstance,
    ExtendedGAProcess,
    GradedAgreement,
    InitialVote,
)
from repro.engine.backend import EngineResult, run_spec
from repro.engine.bus import MessageBus
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.registry import PROTOCOLS, ProtocolRegistry, ProtocolSpec
from repro.engine.spec import RunSpec
from repro.protocols.graded_agreement import GAOutput, tally_votes
from repro.protocols.tob_base import SleepyTOBProcess, resilient_factory
from repro.sleepy import (
    Adversary,
    DiurnalSchedule,
    FullParticipation,
    NullAdversary,
    RandomChurnSchedule,
    SpikeSchedule,
    TableSchedule,
    Trace,
)
from repro.sleepy.simulator import Simulation
from repro.analysis import (
    check_asynchrony_resilience,
    check_churn,
    check_eta_sleepiness,
    check_failure_ratio,
    check_healing,
    check_safety,
)

__version__ = "1.2.0"

__all__ = [
    "Adversary",
    "AsyncPeriod",
    "Block",
    "BlockTree",
    "DiurnalSchedule",
    "EngineResult",
    "ExtendedGAInstance",
    "ExtendedGAProcess",
    "FullParticipation",
    "GAOutput",
    "GradedAgreement",
    "InitialVote",
    "LatestVoteStore",
    "Log",
    "Mempool",
    "PrefixTally",
    "MessageBus",
    "NetworkConditions",
    "NullAdversary",
    "PROTOCOLS",
    "ProtocolRegistry",
    "ProtocolSpec",
    "RunSpec",
    "RandomChurnSchedule",
    "Simulation",
    "SleepyTOBProcess",
    "SpikeSchedule",
    "TableSchedule",
    "Trace",
    "Transaction",
    "beta_tilde",
    "beta_tilde_one_third",
    "check_asynchrony_resilience",
    "check_churn",
    "check_eta_sleepiness",
    "check_failure_ratio",
    "check_healing",
    "check_safety",
    "eta_for_resilience",
    "figure1_curve",
    "gamma_for_beta_tilde",
    "max_churn",
    "max_resilient_pi",
    "resilient_factory",
    "run_spec",
    "tally_votes",
]
