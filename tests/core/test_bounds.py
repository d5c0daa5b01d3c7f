"""Analytic bounds: Figure 1 and the §2.3 algebra, exactly."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

THIRD = Fraction(1, 3)


def test_static_participation_recovers_original_beta():
    """γ = 0 ⇒ β̃ = β (paper: 'no extra stronger assumption is required')."""
    for beta in (Fraction(1, 4), THIRD, Fraction(1, 2)):
        assert beta_tilde(beta, 0) == beta


def test_figure1_closed_form_matches_general_formula():
    """β̃(1/3, γ) = (1 − 3γ)/(3 − 5γ) — the formula printed in Figure 1."""
    for i in range(0, 33):
        gamma = Fraction(i, 100)
        assert beta_tilde(THIRD, gamma) == beta_tilde_one_third(gamma)


def test_figure1_plotted_points():
    """Spot values read off the Figure 1 axes."""
    assert beta_tilde_one_third(0) == THIRD
    assert beta_tilde_one_third(Fraction(1, 5)) == Fraction(1, 5)  # fixpoint at γ=0.2
    assert beta_tilde_one_third(Fraction(3, 10)) == Fraction(1, 15)  # γ=0.3 → 0.0667
    # Approaching the stall threshold the tolerable failure ratio vanishes.
    assert beta_tilde_one_third(Fraction(33, 100)) == Fraction(1, 135)


def test_beta_tilde_monotone_decreasing_in_gamma():
    previous = None
    for i in range(0, 33):
        value = beta_tilde(THIRD, Fraction(i, 100))
        if previous is not None:
            assert value < previous
        previous = value


def test_beta_tilde_domain_validation():
    with pytest.raises(ValueError, match="γ"):
        beta_tilde(THIRD, THIRD)  # γ must be strictly below β
    with pytest.raises(ValueError, match="γ"):
        beta_tilde(THIRD, Fraction(-1, 10))
    with pytest.raises(ValueError, match="β"):
        beta_tilde(Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="β"):
        beta_tilde(Fraction(1), Fraction(0))


@given(
    beta=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    scale=st.fractions(min_value=0, max_value=Fraction(99, 100)),
)
@example(beta=Fraction(9, 10), scale=Fraction(8, 9))  # γ = 4/5 ≥ 1/2: β̃ = 5/6
def test_beta_tilde_bounded_by_beta(beta, scale):
    gamma = beta * scale
    value = beta_tilde(beta, gamma)
    assert 0 < value <= beta
    assert (value == beta) == (gamma == 0)


@given(
    beta=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 2)),
    scale=st.fractions(min_value=Fraction(1, 100), max_value=1),
)
def test_gamma_inversion_roundtrip(beta, scale):
    target = beta * scale
    gamma = gamma_for_beta_tilde(beta, target)
    assert beta_tilde(beta, gamma) == target


def test_gamma_inversion_validation():
    with pytest.raises(ValueError):
        gamma_for_beta_tilde(THIRD, Fraction(1, 2))  # target above β
    with pytest.raises(ValueError):
        gamma_for_beta_tilde(THIRD, 0)


def test_figure1_curve_shape():
    curve = figure1_curve(points=41)
    assert len(curve) == 41
    gammas = [g for g, _ in curve]
    values = [v for _, v in curve]
    assert gammas[0] == 0 and values[0] == THIRD
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < Fraction(1, 100)  # near the stall threshold


def test_figure1_curve_validation():
    with pytest.raises(ValueError):
        figure1_curve(points=1)
    with pytest.raises(ValueError):
        figure1_curve(gamma_max=THIRD)


def test_stall_and_quorum_constants():
    assert max_churn(THIRD) == THIRD
    assert decision_threshold(THIRD) == Fraction(2, 3)
    assert decision_threshold(Fraction(1, 4)) == Fraction(3, 4)


def test_eta_pi_duality():
    assert eta_for_resilience(0) == 1
    assert eta_for_resilience(3) == 4
    assert max_resilient_pi(4) == 3
    assert max_resilient_pi(0) == 0
    for pi in range(6):
        assert max_resilient_pi(eta_for_resilience(pi)) == pi
    with pytest.raises(ValueError):
        eta_for_resilience(-1)
    with pytest.raises(ValueError):
        max_resilient_pi(-1)
