"""Assumption validators: Equations 1–5 on hand-built traces."""

from fractions import Fraction

import pytest

from repro.analysis.assumptions import (
    check_asynchrony_conditions,
    check_churn,
    check_eta_sleepiness,
    check_failure_ratio,
    check_reduced_failure_ratio,
)
from repro.sleepy.trace import RoundRecord, Trace

THIRD = Fraction(1, 3)


def build_trace(rows: list[tuple[set[int], set[int]]], asynchronous=frozenset()) -> Trace:
    """Rows of (honest, byzantine) per round; the rounds in ``asynchronous`` are."""
    trace = Trace(n=16)
    for r, (honest, byz) in enumerate(rows):
        trace.rounds.append(
            RoundRecord(
                round=r,
                awake=frozenset(honest | byz),
                byzantine=frozenset(byz),
                asynchronous=r in asynchronous,
                votes_sent=0,
                proposes_sent=0,
                other_sent=0,
            )
        )
    return trace


def test_failure_ratio_strictness():
    # 9 awake: 2 byz ok (2 < 3), 3 byz violates (3 < 3 fails).
    ok = build_trace([(set(range(7)), {14, 15})])
    assert check_failure_ratio(ok, THIRD).ok
    bad = build_trace([(set(range(6)), {13, 14, 15})])
    report = check_failure_ratio(bad, THIRD)
    assert not report.ok
    assert report.failures[0].round == 0
    assert "failure-ratio" in report.failures[0].assumption


def test_reduced_failure_ratio_uses_beta_tilde():
    # β = 1/3, γ = 1/5 ⇒ β̃ = 1/5: with 10 awake, 2 byz violates (2 < 2 fails).
    trace = build_trace([(set(range(8)), {14, 15})])
    assert check_failure_ratio(trace, THIRD).ok
    assert not check_reduced_failure_ratio(trace, THIRD, Fraction(1, 5)).ok
    # 1 byz of 10 is fine (1 < 2).
    trace2 = build_trace([(set(range(9)), {15})])
    assert check_reduced_failure_ratio(trace2, THIRD, Fraction(1, 5)).ok


def test_churn_bound():
    # η = 2, γ = 1/4.  H_{0..1} = {0..7}; at round 2 two processes sleep:
    # 2 ≤ 0.25·8 holds.  Three sleeping violates.
    rows_ok = [(set(range(8)), set()), (set(range(8)), set()), (set(range(2, 8)), set())]
    assert check_churn(build_trace(rows_ok), eta=2, gamma=Fraction(1, 4)).ok
    rows_bad = [(set(range(8)), set()), (set(range(8)), set()), (set(range(3, 8)), set())]
    report = check_churn(build_trace(rows_bad), eta=2, gamma=Fraction(1, 4))
    assert not report.ok and report.failures[0].round == 2


def test_churn_ignores_empty_history():
    trace = build_trace([(set(range(4)), set())])
    assert check_churn(trace, eta=2, gamma=Fraction(0)).ok


def test_eta_sleepiness():
    # |H_r| > (2/3)|O_{r-η,r}|.  With η=1: round 1 has H={0..5} (6) and
    # O_{0,1} = {0..8} (9): 6 > 6 fails.
    rows = [(set(range(9)), set()), (set(range(6)), set())]
    report = check_eta_sleepiness(build_trace(rows), eta=1, beta=THIRD)
    assert not report.ok
    # With 7 honest at round 1: 7 > 6 holds.
    rows_ok = [(set(range(9)), set()), (set(range(7)), set())]
    assert check_eta_sleepiness(build_trace(rows_ok), eta=1, beta=THIRD).ok


def test_asynchrony_conditions_eq5():
    # H_ra must be contained in H_{ra+1}.
    rows = [(set(range(6)), set()), (set(range(1, 6)), set()), (set(range(6)), set())]
    report = check_asynchrony_conditions(build_trace(rows), ra=0, pi=1, eta=2, beta=THIRD)
    assert any(f.assumption == "eq5" for f in report.failures)


def test_asynchrony_conditions_eq4():
    # Corruption eats into H_ra: survivors must still beat (1-β)|O_{r-η,r}|.
    rows = [
        (set(range(9)), set()),  # ra = 0: H_ra = {0..8}
        ({3, 4, 5, 6, 7, 8}, {0, 1, 2}),  # round 1: three of them corrupted
    ]
    # |H_ra \ B_1| = 6 vs (2/3)·|O_{-1..1}| = (2/3)·9 = 6 → 6 > 6 fails.
    trace = build_trace(rows)
    report = check_asynchrony_conditions(trace, ra=0, pi=1, eta=2, beta=THIRD)
    assert any(f.assumption == "eq4" for f in report.failures)


def test_asynchrony_conditions_pass_on_clean_window():
    rows = [(set(range(12)), set())] * 6
    report = check_asynchrony_conditions(build_trace(rows), ra=1, pi=2, eta=3, beta=THIRD)
    assert report.ok


def test_asynchrony_conditions_require_executed_ra():
    trace = build_trace([(set(range(4)), set())])
    with pytest.raises(ValueError, match="horizon"):
        check_asynchrony_conditions(trace, ra=5, pi=1, eta=1, beta=THIRD)

