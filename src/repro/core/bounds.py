"""Analytic bounds: the β̃ formula, Figure 1, and parameter helpers (§2.3).

The paper trades churn tolerance for asynchrony resilience: with an
expiration period of η rounds and a churn rate of γ per η rounds, the
per-round failure ratio must be lowered from the original protocol's β
to

    β̃ = (β − γ) / (γ·(β − 2) + 1)                      (Equation 2)

Figure 1 plots this for β = 1/3 (decision threshold 2/3), where it
simplifies to ``β̃_{2/3} = (1 − 3γ)/(3 − 5γ)``.  All functions here use
exact :class:`fractions.Fraction` arithmetic; benches convert to floats
only for display.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction | int


def beta_tilde(beta: Rational, gamma: Rational) -> Fraction:
    """The reduced failure ratio β̃ (Equation 2).

    Defined for ``0 ≤ γ < β < 1`` ("γ must be smaller than β, since
    otherwise Equation 2 requires |B_r| < 0").  At ``γ = 0`` it returns
    β unchanged — no extra assumption under static participation.
    """
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    if not 0 < beta < 1:
        raise ValueError(f"β must be in (0, 1), got {beta}")
    if not 0 <= gamma < beta:
        raise ValueError(f"churn rate γ must satisfy 0 ≤ γ < β, got γ={gamma}, β={beta}")
    denominator = gamma * (beta - 2) + 1
    assert denominator > 0  # γ < β < 1: 1 − γ(2 − β) > 1 − β(2 − β) = (1 − β)² > 0
    return (beta - gamma) / denominator


def beta_tilde_one_third(gamma: Rational) -> Fraction:
    """Figure 1's closed form ``(1 − 3γ)/(3 − 5γ)`` for β = 1/3."""
    gamma = Fraction(gamma)
    if not 0 <= gamma < Fraction(1, 3):
        raise ValueError(f"γ must be in [0, 1/3) for β = 1/3, got {gamma}")
    return (1 - 3 * gamma) / (3 - 5 * gamma)


def max_churn(beta: Rational) -> Fraction:
    """The stall threshold: at ``γ ≥ β`` the system may stall with no faults.

    (Figure 1 caption: "At a drop-off rate of γ ≥ 1/3, the system may
    stall even without failures.")
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError(f"β must be in (0, 1), got {beta}")
    return beta


def decision_threshold(beta: Rational) -> Fraction:
    """Grade-1 quorum ``1 − β`` of perceived participation."""
    return 1 - Fraction(beta)


def gamma_for_beta_tilde(beta: Rational, target: Rational) -> Fraction:
    """Invert Equation 2: the churn rate at which β̃ equals ``target``.

    Useful for calibration ("how much churn can I allow if I must
    tolerate a failure ratio of ``target``?").  Solving
    ``t = (β − γ)/(γ(β − 2) + 1)`` for γ gives
    ``γ = (β − t) / (1 − t·(2 − β))``.
    """
    beta = Fraction(beta)
    target = Fraction(target)
    if not 0 < target <= beta:
        raise ValueError(f"target β̃ must be in (0, β], got {target}")
    gamma = (beta - target) / (1 - target * (2 - beta))
    assert 0 <= gamma < beta
    return gamma


def figure1_curve(
    beta: Rational = Fraction(1, 3),
    points: int = 41,
    gamma_max: Rational | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """The Figure 1 curve: ``points`` samples of ``(γ, β̃(β, γ))``.

    Samples γ uniformly on ``[0, gamma_max]``; the default upper end
    stops just short of the stall threshold β (where β̃ reaches 0).
    """
    if points < 2:
        raise ValueError("need at least two points")
    beta = Fraction(beta)
    hi = Fraction(gamma_max) if gamma_max is not None else max_churn(beta) - Fraction(1, 1000)
    if not 0 <= hi < beta:
        raise ValueError(f"gamma_max must be in [0, β), got {hi}")
    step = hi / (points - 1)
    return [(step * i, beta_tilde(beta, step * i)) for i in range(points)]


def eta_for_resilience(pi: int) -> int:
    """Smallest expiration period tolerating π asynchronous rounds.

    Theorem 2 gives π-asynchrony resilience for ``π < η``, so ``η = π + 1``.
    """
    if pi < 0:
        raise ValueError("π must be non-negative")
    return pi + 1


def max_resilient_pi(eta: int) -> int:
    """Longest asynchronous period an η-expiration protocol tolerates (η − 1)."""
    if eta < 0:
        raise ValueError("η must be non-negative")
    return max(0, eta - 1)
