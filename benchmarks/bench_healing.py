"""E4 — Theorem 3: healing k = 1 round after asynchrony ends.

Two asynchrony shapes — a total delivery blackout and the split-vote
attack — each followed by restored synchrony.  Measured: rounds from
the healing point (``ra + π + 1``) to the next decision, and post-healing
safety (Definition 6).  The theorem promises both; the decision should
arrive within about one view.
"""

from repro.analysis import check_healing, format_table
from repro.harness import run_tob
from repro.workloads import blackout_scenario, split_vote_attack_scenario


def test_healing(record):
    def experiment():
        rows = []
        for pi in (1, 2, 3):
            eta = pi + 1
            config = blackout_scenario("resilient", eta=eta, pi=pi, ra=9, rounds=32)
            trace = run_tob(config)
            report = check_healing(trace, last_async_round=9 + pi, k=1)
            rows.append(["blackout", eta, pi, report.rounds_to_decision, report.safety_ok, report.ok])
        for pi in (1, 2):
            eta = pi + 2
            config = split_vote_attack_scenario("resilient", eta=eta, pi=pi, n=20, target_round=10)
            trace = run_tob(config)
            report = check_healing(trace, last_async_round=10, k=1)
            rows.append(["split-vote", eta, pi, report.rounds_to_decision, report.safety_ok, report.ok])
        return rows

    rows = experiment()
    record(
        format_table(
            ["asynchrony", "η", "π", "rounds to next decision", "post-healing safety", "healed"],
            rows,
            title="E4: healing after asynchrony (Theorem 3, k = 1)",
        )
    )
    for row in rows:
        assert row[5], row  # healed
        assert row[3] is not None and row[3] <= 4, row  # within ~one view
