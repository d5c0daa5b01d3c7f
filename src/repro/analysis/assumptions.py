"""Validators for the paper's model assumptions (Equations 1–5).

The theorems hold *under assumptions* on participation, churn, and
corruption.  Rather than trusting that a schedule/adversary pair was
constructed correctly, every experiment validates the executed trace
against the exact inequalities:

* Equation 1 (churn):      ``|H_{r−η,r−1} \\ H_r| ≤ γ·|H_{r−η,r−1}|``
* Equation 2 (failures):   ``|B_r| < β̃·|O_r|`` with β̃ from
  :func:`repro.core.bounds.beta_tilde`
* Equation 3 (η-sleepiness, the D'Amato–Zanolini variant):
  ``|H_r| > (1 − β)·|O_{r−η,r}|``
* Equation 4 (asynchrony): ``|H_ra \\ B_r| > (1 − β)·|O_{r−η,r}|`` for
  all ``r ∈ [ra+1, ra+π+1]``
* Equation 5 (asynchrony): ``H_ra ⊆ H_{ra+1}``

All comparisons use exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.bounds import beta_tilde
from repro.sleepy.trace import Trace


@dataclass(frozen=True)
class AssumptionFailure:
    """One violated inequality at one round."""

    round: int
    assumption: str
    detail: str


@dataclass
class AssumptionReport:
    """Result of validating one assumption over a trace."""

    ok: bool
    name: str
    failures: list[AssumptionFailure] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _report(name: str, failures: list[AssumptionFailure]) -> AssumptionReport:
    return AssumptionReport(ok=not failures, name=name, failures=failures)


def check_failure_ratio(trace: Trace, beta: Fraction, start: int = 0) -> AssumptionReport:
    """``|B_r| < β·|O_r|`` at every executed round (Definition 3)."""
    beta = Fraction(beta)
    failures = []
    for rec in trace.rounds[start:]:
        if len(rec.byzantine) * beta.denominator >= beta.numerator * len(rec.awake):
            failures.append(
                AssumptionFailure(
                    rec.round,
                    "failure-ratio",
                    f"|B_r|={len(rec.byzantine)} vs β·|O_r|={beta}·{len(rec.awake)}",
                )
            )
    return _report("failure-ratio", failures)


def check_reduced_failure_ratio(
    trace: Trace, beta: Fraction, gamma: Fraction, start: int = 0
) -> AssumptionReport:
    """Equation 2: ``|B_r| < β̃·|O_r|`` with β̃ = (β−γ)/(γ(β−2)+1)."""
    return check_failure_ratio(trace, beta_tilde(beta, gamma), start=start)


def check_churn(trace: Trace, eta: int, gamma: Fraction, start: int = 0) -> AssumptionReport:
    """Equation 1: at most a γ fraction of recent honest processes slept.

    For each round ``r``: ``|H_{r−η,r−1} \\ H_r| ≤ γ·|H_{r−η,r−1}|``.
    """
    gamma = Fraction(gamma)
    failures = []
    for rec in trace.rounds[start:]:
        r = rec.round
        recent = trace.honest_union(r - eta, r - 1)
        if not recent:
            continue
        slept = len(recent - rec.honest)
        if slept * gamma.denominator > gamma.numerator * len(recent):
            failures.append(
                AssumptionFailure(
                    r,
                    "churn",
                    f"|H_(r-η,r-1) \\ H_r|={slept} vs γ·|H_(r-η,r-1)|={gamma}·{len(recent)}",
                )
            )
    return _report("churn", failures)


def check_eta_sleepiness(trace: Trace, eta: int, beta: Fraction, start: int = 0) -> AssumptionReport:
    """Equation 3 (η-sleepiness): ``|H_r| > (1 − β)·|O_{r−η,r}|``.

    This single condition is what §3.3 uses to instantiate the extended
    GA assumptions inside the modified Algorithm 1; it is implied by the
    churn + reduced-failure conditions (Equations 1–2) but can also be
    checked on its own (the A2 ablation compares the two).
    """
    beta = Fraction(beta)
    one_minus = 1 - beta
    failures = []
    for rec in trace.rounds[start:]:
        r = rec.round
        window = trace.awake_union(r - eta, r)
        if len(rec.honest) * one_minus.denominator <= one_minus.numerator * len(window):
            failures.append(
                AssumptionFailure(
                    r,
                    "eta-sleepiness",
                    f"|H_r|={len(rec.honest)} vs (1-β)·|O_(r-η,r)|={one_minus}·{len(window)}",
                )
            )
    return _report("eta-sleepiness", failures)


def check_asynchrony_conditions(
    trace: Trace, ra: int, pi: int, eta: int, beta: Fraction
) -> AssumptionReport:
    """Equations 4 and 5 for the asynchronous period ``[ra+1, ra+π]``."""
    beta = Fraction(beta)
    one_minus = 1 - beta
    failures: list[AssumptionFailure] = []
    if ra >= trace.horizon:
        raise ValueError(f"ra={ra} beyond the executed horizon {trace.horizon}")
    h_ra = trace.record(ra).honest

    if ra + 1 < trace.horizon:
        h_next = trace.record(ra + 1).honest
        if not h_ra <= h_next:
            missing = sorted(h_ra - h_next)
            failures.append(
                AssumptionFailure(
                    ra + 1, "eq5", f"H_ra ⊄ H_(ra+1): missing processes {missing[:8]}"
                )
            )

    for r in range(ra + 1, min(ra + pi + 1, trace.horizon - 1) + 1):
        survivors = h_ra - trace.record(r).byzantine
        window = trace.awake_union(r - eta, r)
        if len(survivors) * one_minus.denominator <= one_minus.numerator * len(window):
            failures.append(
                AssumptionFailure(
                    r,
                    "eq4",
                    f"|H_ra \\ B_r|={len(survivors)} vs (1-β)·|O_(r-η,r)|={one_minus}·{len(window)}",
                )
            )
    return _report("asynchrony-conditions", failures)

