"""Analysis: the run verdict, correctness checkers, assumption validators, metrics.

* :mod:`repro.analysis.verdict` — :func:`judge`, the one code that decides
  whether a run failed; every CLI command, sweep reducer and CI gate reads it.
* :mod:`repro.analysis.checkers` — safety (Def. 2), asynchrony
  resilience (Def. 5), healing (Def. 6), per-transaction liveness.
* :mod:`repro.analysis.assumptions` — the model inequalities
  (Equations 1–5) validated on executed traces.
* :mod:`repro.analysis.ga_properties` — Definition 4 + clique validity
  checkers for single GA instances.
* :mod:`repro.analysis.metrics` — latency, chain growth, throughput.
* :mod:`repro.analysis.tables` — aligned table rendering for benches.
* :mod:`repro.analysis.batch` — the paper's experiment grids as
  :class:`~repro.engine.sweep.SweepSpec`\\ s with per-cell reducers
  (import explicitly: it pulls in the engine and workload layers).
"""

from repro.analysis.assumptions import (
    AssumptionFailure,
    AssumptionReport,
    check_asynchrony_conditions,
    check_churn,
    check_eta_sleepiness,
    check_failure_ratio,
    check_reduced_failure_ratio,
)
from repro.analysis.checkers import (
    Conflict,
    HealingReport,
    LivenessReport,
    ResilienceReport,
    SafetyReport,
    check_asynchrony_resilience,
    check_healing,
    check_safety,
    check_transaction_liveness,
)
from repro.analysis.ga_properties import (
    GAPropertyReport,
    check_clique_validity,
    check_ga_properties,
)
from repro.analysis.metrics import (
    ReorgEvent,
    block_decision_latencies,
    chain_growth_rate,
    decided_depth_timeline,
    decision_gaps,
    decision_rounds,
    max_reorg_depth,
    message_totals,
    participation_timeline,
    reorg_events,
    stalls,
    transactions_decided,
)
from repro.analysis.export import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.analysis.tables import format_table
from repro.analysis.viz import render_depth_curve, render_timeline

__all__ = [
    "AssumptionFailure",
    "AssumptionReport",
    "Conflict",
    "GAPropertyReport",
    "HealingReport",
    "LivenessReport",
    "ReorgEvent",
    "ResilienceReport",
    "SafetyReport",
    "block_decision_latencies",
    "chain_growth_rate",
    "check_asynchrony_conditions",
    "check_asynchrony_resilience",
    "check_churn",
    "check_clique_validity",
    "check_eta_sleepiness",
    "check_failure_ratio",
    "check_ga_properties",
    "check_healing",
    "check_reduced_failure_ratio",
    "check_safety",
    "check_transaction_liveness",
    "decided_depth_timeline",
    "decision_gaps",
    "decision_rounds",
    "format_table",
    "load_trace",
    "max_reorg_depth",
    "message_totals",
    "participation_timeline",
    "render_depth_curve",
    "render_timeline",
    "reorg_events",
    "save_trace",
    "stalls",
    "trace_from_dict",
    "trace_to_dict",
    "transactions_decided",
]
