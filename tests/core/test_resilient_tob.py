"""The asynchrony-resilient protocol: Theorems 1–3 behaviours."""

import pytest

from repro.analysis.checkers import (
    check_asynchrony_resilience,
    check_healing,
    check_safety,
)
from repro.analysis.metrics import decision_gaps
from repro.attacks import apply_script, get_script
from repro.engine.registry import PROTOCOLS
from repro.harness import TOBRunConfig, run_tob


def attack_config(protocol: str, eta: int, pi: int, target: int = 10, n: int = 20) -> TOBRunConfig:
    """Split-vote attack inside a π-round asynchronous window ending at ``target``."""
    return apply_script(
        TOBRunConfig(n=n, rounds=target + 14, protocol=protocol, eta=eta),
        get_script("split-vote", n, pi=pi, target_round=target),
    )


def blackout_config(eta: int, pi: int, ra: int = 9, n: int = 12, rounds: int = 30) -> TOBRunConfig:
    """Nothing delivered during ``[ra + 1, ra + π]`` against the resilient protocol."""
    return apply_script(
        TOBRunConfig(n=n, rounds=rounds, protocol="resilient", eta=eta),
        get_script("blackout", n, pi=pi, ra=ra),
    )


def test_eta_must_be_nonnegative(registry, verifier):
    with pytest.raises(ValueError, match="η"):
        PROTOCOLS.factory("resilient", eta=-1)(0, registry.secret_key(0), verifier)


def test_synchronous_behaviour_matches_mmr_exactly():
    """Under synchrony the modification is invisible: same decisions,
    same rounds, same logs (the paper's 'matches the latency and
    throughput of the original protocol')."""
    base = run_tob(TOBRunConfig(n=8, rounds=30, protocol="mmr"))
    for eta in (1, 3, 6):
        modified = run_tob(TOBRunConfig(n=8, rounds=30, protocol="resilient", eta=eta))
        assert [
            (d.pid, d.round, d.view, d.tip) for d in modified.decisions
        ] == [(d.pid, d.round, d.view, d.tip) for d in base.decisions]


def test_eta_zero_is_the_original_protocol_under_attack():
    """η = 0 degenerates to MMR — including its vulnerability."""
    broken = run_tob(attack_config("resilient", eta=0, pi=1))
    assert not check_safety(broken).ok


def test_theorem2_resilient_for_pi_below_eta():
    for eta, pi in ((2, 1), (4, 1), (4, 3)):
        trace = run_tob(attack_config("resilient", eta=eta, pi=pi))
        assert check_safety(trace).ok, f"safety lost at eta={eta}, pi={pi}"
        report = check_asynchrony_resilience(trace, ra=10 - pi, pi=pi)
        assert report.ok, f"resilience lost at eta={eta}, pi={pi}"


def test_mmr_breaks_where_resilient_survives():
    assert not check_safety(run_tob(attack_config("mmr", eta=0, pi=1))).ok
    assert check_safety(run_tob(attack_config("resilient", eta=2, pi=1))).ok


def test_theorem3_healing_after_blackout():
    """A π-round total blackout: no decisions during it, prompt recovery after."""
    eta, pi, ra = 4, 3, 9
    trace = run_tob(blackout_config(eta, pi, ra))
    assert check_safety(trace).ok
    report = check_healing(trace, last_async_round=ra + pi, k=1)
    assert report.ok, (report.first_decision_after, report.rounds_to_decision)


def test_decisions_resume_quickly_after_asynchrony():
    eta, pi, ra = 4, 2, 9
    trace = run_tob(blackout_config(eta, pi, ra, rounds=26))
    post = [d.round for d in trace.decisions if d.round > ra + pi]
    assert post and min(post) <= ra + pi + 4  # within ~1 view of healing


def test_resilience_with_blackout_adversary_any_pi_below_eta():
    """Withholding everything for π < η rounds can never cause a fork."""
    for pi in (1, 2, 3):
        trace = run_tob(blackout_config(4, pi, n=10, rounds=28))
        assert check_safety(trace).ok
        assert check_asynchrony_resilience(trace, ra=9, pi=pi).ok


def test_latency_unaffected_by_eta_under_synchrony():
    for eta in (0, 2, 8):
        trace = run_tob(TOBRunConfig(n=8, rounds=30, protocol="resilient", eta=eta))
        gaps = decision_gaps(trace)
        assert gaps and all(gap == 2 for gap in gaps)
