"""E3 — Theorem 2 sweep: π-asynchrony resilience holds for all π < η.

For each expiration period η, sweep the asynchronous-period length π
across the theorem boundary, always ending the window at the attacked
decision round; the adversary starves delivery throughout the window so
honest votes age out, then split-votes the final round.

The (η, π) matrix is the ``pi-eta`` row of
:data:`repro.analysis.batch.GRIDS`, executed through the engine's streamed
parallel sweep (:func:`repro.engine.sweep.stream_sweep`): cells fan
across a process pool, each worker reduces its run to a verdict row
in-process, and rows stream back in grid order —
``tests/engine/test_sweep_equivalence.py`` pins that the streamed grid
is cell-for-cell identical to the pre-sweep serial loop.

Expectation: every (η, π) with π < η is safe *and* Definition 5
resilient (the theorem).  One discretisation nuance is expected and
documented: the paper's expiration window ``[r − η, r]`` is inclusive
(η + 1 rounds wide), so the boundary run π = η still holds empirically
— the last pre-asynchrony votes sit exactly at the window edge — and
forks appear from π = η + 1 onward.
"""

from repro.analysis.batch import GRIDS
from repro.engine.sweep import sweep_rows

JOB = GRIDS["pi-eta"]
N = 20


def test_pi_eta_sweep(record):
    def experiment():
        return sweep_rows(JOB.build(n=N), JOB.reducer)

    cells = experiment()
    record(JOB.table(cells, n=N))

    for cell in cells:
        if cell["guaranteed"]:
            assert cell["safe"] and cell["resilient"], cell
        if cell["pi"] == cell["eta"]:
            # Inclusive-window edge: one bonus round beyond the theorem.
            assert cell["safe"], cell
        if cell["pi"] > cell["eta"]:
            assert not cell["safe"], cell  # the attack lands past the edge
