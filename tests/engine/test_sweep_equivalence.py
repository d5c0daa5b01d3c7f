"""Streamed grids equal the pre-sweep serial loops, cell for cell.

Each converted experiment grid (ISSUE 3) must be proven run-for-run
identical to the serial ``run_tob`` loop it replaced.  This suite
re-states the *pre-PR* loops verbatim (shrunken to n=6 / tiny scale so
the suite stays fast) and pins that :func:`stream_sweep` over the named
grids from :mod:`repro.analysis.batch` produces identical per-cell
verdicts, summary rows, and formatted tables — on the serial path and
across the process pool alike.
"""

from fractions import Fraction

import pytest

from repro.analysis import chain_growth_rate, check_asynchrony_resilience, check_safety
from repro.analysis.batch import GRIDS
from repro.core.bounds import beta_tilde
from repro.engine.sweep import stream_sweep, sweep_rows
from repro.harness import run_tob
from repro.workloads import churn_scenario, split_vote_attack_scenario

N = 6  # the actual bench grids, shrunken
THIRD = Fraction(1, 3)
PI_ETA, FIGURE1 = GRIDS["pi-eta"], GRIDS["figure1"]


# ----------------------------------------------------------------------
# The pre-PR serial loops, verbatim (modulo scale)
# ----------------------------------------------------------------------
def serial_pi_eta_cells(n: int) -> list[dict]:
    """The old ``bench_pi_eta_sweep`` experiment loop, as it was."""
    cells = []
    for eta in (2, 4, 6):
        for pi in range(1, eta + 3):
            target = 10 + pi  # keep the attacked round's pre-window identical
            config = split_vote_attack_scenario(
                "resilient",
                eta=eta,
                pi=pi,
                n=n,
                target_round=target if target % 2 == 0 else target + 1,
            )
            trace = run_tob(config)
            cells.append(
                {
                    "eta": eta,
                    "pi": pi,
                    "guaranteed": pi < eta,
                    "safe": check_safety(trace).ok,
                    "resilient": check_asynchrony_resilience(
                        trace, ra=config.meta["ra"], pi=pi
                    ).ok,
                }
            )
    return cells


def serial_figure1_outcomes(n: int, eta: int, rounds: int, gammas) -> list[dict]:
    """The old ``bench_figure1`` empirical probe loop, as it was."""
    outcomes = []
    for gamma_f in gammas:
        gamma = Fraction(gamma_f).limit_denominator(100)
        allowed = beta_tilde(THIRD, gamma)
        byz = max(0, int(allowed * n) - 1)  # strictly below β̃·|O_r|
        config = churn_scenario(
            "resilient", eta=eta, gamma=float(gamma), n=n, rounds=rounds, byzantine=byz, seed=3
        )
        trace = run_tob(config)
        outcomes.append(
            {
                "gamma": gamma_f,
                "allowed": allowed,
                "byz": byz,
                "growth": chain_growth_rate(trace, start=8),
                "safe": check_safety(trace).ok,
            }
        )
    return outcomes


# ----------------------------------------------------------------------
# Equivalence pins
# ----------------------------------------------------------------------
def test_pi_eta_grid_matches_serial_loop_cell_for_cell():
    serial = serial_pi_eta_cells(N)
    streamed = sweep_rows(PI_ETA.build(n=N), PI_ETA.reducer, max_workers=0)
    assert streamed == serial
    # The rendered table is byte-identical too.
    assert PI_ETA.table(streamed, n=N) == PI_ETA.table(serial, n=N)


@pytest.mark.slow
def test_pi_eta_grid_is_pool_invariant():
    """The process pool changes wall-clock, never verdicts: streamed
    outcomes arrive in grid order with identical rows and params."""
    serial = list(stream_sweep(PI_ETA.build(n=N), reducer=PI_ETA.reducer, max_workers=0))
    pooled = list(
        stream_sweep(PI_ETA.build(n=N), reducer=PI_ETA.reducer, max_workers=2, window=7)
    )
    assert [o.row for o in pooled] == [o.row for o in serial]
    assert [o.index for o in pooled] == list(range(len(serial)))
    assert [(o.params["eta"], o.params["pi"]) for o in pooled] == [
        (o.params["eta"], o.params["pi"]) for o in serial
    ]


def test_figure1_grid_matches_serial_loop_at_tiny_scale():
    n, eta, rounds, gammas = 12, 4, 24, (0.0, 0.10)  # the CI smoke scale
    serial = serial_figure1_outcomes(n, eta, rounds, gammas)
    streamed = sweep_rows(
        FIGURE1.build(n=n, eta=eta, rounds=rounds, gamma_f=gammas), FIGURE1.reducer, max_workers=0
    )
    assert streamed == serial
    assert FIGURE1.table(streamed, n=n) == FIGURE1.table(serial, n=n)


@pytest.mark.slow
def test_figure1_grid_is_pool_invariant():
    n, eta, rounds, gammas = 12, 4, 24, (0.0, 0.10)
    serial = serial_figure1_outcomes(n, eta, rounds, gammas)
    pooled = sweep_rows(
        FIGURE1.build(n=n, eta=eta, rounds=rounds, gamma_f=gammas), FIGURE1.reducer, max_workers=2
    )
    assert pooled == serial
