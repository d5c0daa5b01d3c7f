"""E9 — the η trade-off: asynchrony tolerance vs churn/failure headroom.

§3 step 1 asks deployments to calibrate η.  This bench quantifies both
sides of the dial at a fixed 2%-per-round churn rate:

* analytic — tolerated asynchrony π = η − 1, window churn γ = η·2%, and
  the resulting failure headroom β̃(γ) (Equation 2);
* measured — chain growth and the longest decision stall of real runs
  with that churn and a β̃-sized crash adversary.

Shape: π grows linearly with η while β̃ (and with it the tolerable
adversary) shrinks to nothing around η ≈ 16 (where γ → 1/3).
"""

from fractions import Fraction

from repro.analysis import chain_growth_rate, check_safety, format_table, stalls
from repro.attacks import apply_script, get_script
from repro.core.bounds import beta_tilde, max_resilient_pi
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.workloads import churn_walk

N, ROUNDS = 30, 50
PER_ROUND_CHURN = Fraction(2, 100)


def run_eta(eta: int) -> dict:
    gamma = min(PER_ROUND_CHURN * eta, Fraction(32, 100))
    allowed = beta_tilde(Fraction(1, 3), gamma)
    byz = max(0, int(allowed * N) - 1)
    config = RunSpec(
        n=N,
        rounds=ROUNDS,
        protocol="resilient",
        eta=eta,
        schedule=churn_walk(N, eta=eta, gamma=float(gamma), seed=eta),
    )
    if byz:
        config = apply_script(config, get_script("crash", N, byz=range(N - byz, N), from_round=0))
    trace = run_spec(config).trace
    return {
        "eta": eta,
        "pi": max_resilient_pi(eta),
        "gamma": float(gamma),
        "beta_tilde": float(allowed),
        "byz": byz,
        "growth": chain_growth_rate(trace, start=8),
        "stall": max(map(len, stalls(trace))),
        "safe": check_safety(trace).ok,
    }


def test_eta_tradeoff(record):
    def experiment():
        return [run_eta(eta) for eta in (1, 2, 4, 8, 12, 16)]

    rows = experiment()
    record(
        format_table(
            ["η", "π tolerated", "γ per window", "β̃", "Byz run", "growth", "longest stall", "safe"],
            [
                [r["eta"], r["pi"], r["gamma"], r["beta_tilde"], r["byz"], r["growth"], r["stall"], r["safe"]]
                for r in rows
            ],
            title=f"E9: the η dial at {float(PER_ROUND_CHURN):.0%} per-round churn (n={N}, β=1/3)",
        )
    )

    # Monotone shape: π up, β̃ down.
    pis = [r["pi"] for r in rows]
    betas = [r["beta_tilde"] for r in rows]
    assert pis == sorted(pis)
    assert betas == sorted(betas, reverse=True)
    # Every properly-sized run is safe and makes progress.
    for r in rows:
        assert r["safe"], r
        assert r["growth"] > 0.30, r
