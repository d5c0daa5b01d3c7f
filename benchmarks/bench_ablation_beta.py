"""A1 — ablation: why Equation 2 lowers β to β̃.

§2.3: using unexpired votes of asleep processes hands the adversary
extra power, so the failure ratio must drop from β to
β̃ = (β − γ)/(γ(β − 2) + 1).  What if a deployment ignored that and kept
sizing its adversary tolerance by the original β?

Setup: a *stale-vote amplification* attack.  A set of honest processes
votes, goes to sleep, and their unexpired votes linger on an old branch
while Byzantine processes keep re-voting that same old branch forever;
fresh honest processes try to advance a new one.  Both sizings suffer
the transient ≈ η-round stall that the sleep spike itself causes (the
sleepers' votes must expire), but then they diverge: with the adversary
sized under β̃ (Equation 2) progress resumes at full cadence, while an
adversary sized between β̃ and β — legal by the original protocol's
accounting! — keeps the fresh votes pinned below the 2/3 quorum and the
chain limps at a fraction of its cadence indefinitely.

Both sizings are the ``ablation-beta`` row of
:data:`repro.analysis.batch.GRIDS` (the ``stale-votes`` attack script per
cell), executed side by side through the engine's streamed parallel
sweep with in-worker reduction to cadence rows.
"""

from fractions import Fraction

from repro.analysis.batch import GRIDS, ablation_beta_sizings
from repro.core.bounds import beta_tilde
from repro.engine.sweep import sweep_rows

JOB = GRIDS["ablation-beta"]
#: ``sleep_at``: a third of the honest population sleeps after this round.
SETTINGS = {"n": 30, "rounds": 40, "eta": 6, "sleep_at": 14, "sleepers": 9}


def test_ablation_beta(record):
    def experiment():
        return sweep_rows(JOB.build(**SETTINGS), JOB.reducer)

    rows = experiment()
    record(JOB.table(rows, **SETTINGS))

    under, over, gamma = ablation_beta_sizings(SETTINGS["n"], SETTINGS["sleepers"])
    assert [row["byz"] for row in rows] == [under, over]
    assert beta_tilde(Fraction(1, 3), gamma) > 0

    # Equation 2 sizing: full cadence after the transient.  β sizing:
    # liveness collapses to a fraction of it.  (Safety is never the
    # casualty here — Eq. 2 protects liveness headroom.)
    assert rows[0]["safe"] and rows[1]["safe"]
    assert rows[0]["post_decisions"] >= 3 * max(rows[1]["post_decisions"], 1), rows
