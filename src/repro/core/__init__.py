"""The paper's primary contribution (§2.3, §3.2, §3.3).

* :mod:`repro.core.expiration` — latest-unexpired-message tracking
  (the configurable message-expiration period η).
* :mod:`repro.core.extended_ga` — the graded agreement over a window of
  rounds: Figure 3's extended GA with an initial vote set ``M₀`` and the
  clique-validity property (Lemma 1); Figure 2 is its empty-``M₀`` case.
* :mod:`repro.core.bounds` — the analytic trade-off (Figure 1,
  Equations 1–5 constants): β̃ = (β − γ)/(γ(β − 2) + 1) and friends.

Algorithm 1 with expiration period η — π-asynchrony-resilient for π < η
(Theorems 1–3) — is :class:`repro.protocols.tob_base.SleepyTOBProcess`,
which holds one :class:`~repro.core.extended_ga.GradedAgreement`.
"""

from repro.core.bounds import (
    beta_tilde,
    beta_tilde_one_third,
    decision_threshold,
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

__all__ = [
    "ExtendedGAInstance",
    "ExtendedGAProcess",
    "GradedAgreement",
    "InitialVote",
    "LatestVoteStore",
    "beta_tilde",
    "beta_tilde_one_third",
    "decision_threshold",
    "eta_for_resilience",
    "figure1_curve",
    "gamma_for_beta_tilde",
    "max_churn",
    "max_resilient_pi",
]
