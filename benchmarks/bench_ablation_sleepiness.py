"""A2 — ablation: explicit churn bound (Eqs. 1+2) vs η-sleepiness (Eq. 3).

The paper bounds churn and failures separately (Equations 1 and 2) and
notes that D'Amato–Zanolini's η-sleepy model instead makes the single
assumption |H_r| > (1 − β)·|O_{r−η,r}| (Equation 3).  §3.3 shows
Eqs. 1+2 imply the extended-GA premise the proofs need — the same
inequality Eq. 3 states directly.

This bench samples random participation traces and classifies each
round by which admission checks it passes, measuring (a) that the
churn-bound model is the more restrictive one in practice (every
Eq. 1+2 round also passes Eq. 3) and (b) how many Eq. 3-admissible
rounds the explicit churn bound rejects — the price of the more
structured assumption.

The 12 sampled traces are the ``sleepiness`` row of
:data:`repro.analysis.batch.GRIDS` (seeded draws, one independent run per
cell), executed through the engine's streamed parallel sweep; each
worker ships back only the per-run admission sets, aggregated here.
"""

from repro.analysis.batch import GRIDS, aggregate_sleepiness, sleepiness_draws
from repro.engine.sweep import sweep_rows

JOB = GRIDS["sleepiness"]
N, ROUNDS, ETA = 24, 30, 4
SAMPLES = 12


def test_ablation_sleepiness(record):
    def experiment():
        grid = JOB.build(draw=sleepiness_draws(SAMPLES), n=N, rounds=ROUNDS, eta=ETA)
        return sweep_rows(grid, JOB.reducer)

    rows = experiment()
    record(JOB.table(rows, n=N, eta=ETA))
    agg = aggregate_sleepiness(rows)

    # §3.3's implication, observed: no round passes the explicit
    # churn-bound model while failing η-sleepiness.
    assert agg["eq12_not_eq3"] == 0
    # And the single-inequality model is strictly more liberal.
    assert agg["eq3_not_eq12"] > 0
    assert agg["eq3"] >= agg["eq12"]
