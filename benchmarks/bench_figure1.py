"""F1 — Figure 1: allowable failure ratio β̃ versus drop-off rate γ.

Regenerates the paper's only data figure twice over:

* **Analytic**: the curve β̃ = (β − γ)/(γ(β − 2) + 1), checked against
  the closed form (1 − 3γ)/(3 − 5γ) printed on the figure, for β = 1/3
  and (ablation A3) β = 1/4.
* **Empirical**: protocol runs at churn/failure points below the curve
  must make progress and stay safe; the stall threshold γ ≥ β is
  exhibited with a steep participation decline (see bench_churn_stall
  for the full stall study).

The empirical probe is the ``figure1`` row of
:data:`repro.analysis.batch.GRIDS`, executed through the engine's streamed
parallel sweep — one worker per churn point, each reducing its run to a
(growth, safety) row in-process; the serial-loop equivalence is pinned
by ``tests/engine/test_sweep_equivalence.py``.
"""

from fractions import Fraction

from repro.analysis import format_table
from repro.analysis.batch import GRIDS
from repro.core.bounds import beta_tilde, beta_tilde_one_third, figure1_curve
from repro.engine.sweep import sweep_rows

THIRD = Fraction(1, 3)
JOB = GRIDS["figure1"]


def analytic_tables() -> str:
    rows = []
    for gamma, value in figure1_curve(beta=THIRD, points=9, gamma_max=Fraction(32, 100)):
        closed_form = beta_tilde_one_third(gamma)
        assert value == closed_form  # the printed formula matches Eq. 2
        rows.append([float(gamma), float(value), float(beta_tilde(Fraction(1, 4), gamma * Fraction(25, 33)))])
    return format_table(
        ["γ", "β̃ (β=1/3)", "β̃ (β=1/4, scaled γ)"],
        rows,
        title="Figure 1 (analytic): allowable failure ratio vs drop-off rate",
    )


def empirical_probe() -> tuple[str, list[dict]]:
    """Runs below the curve: growth and safety must hold (streamed sweep)."""
    # The grid's own defaults are the paper scale.
    outcomes = sweep_rows(JOB.build(), JOB.reducer)
    return JOB.table(outcomes), outcomes


def test_figure1(record):
    def experiment():
        table_a = analytic_tables()
        table_e, outcomes = empirical_probe()
        return table_a + "\n\n" + table_e, outcomes

    text, outcomes = experiment()
    record(text)

    # Shape assertions (the paper's claims, not absolute numbers):
    assert beta_tilde_one_third(0) == THIRD  # β̃(0) = 1/3
    assert beta_tilde_one_third(Fraction(3, 10)) < Fraction(1, 10)  # vanishing near stall
    for outcome in outcomes:
        assert outcome["safe"], outcome
        assert outcome["growth"] > 0.25, outcome  # progress below the curve
