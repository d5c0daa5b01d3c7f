"""Workloads: participation patterns, transaction streams, scenarios.

* :mod:`repro.workloads.participation` — schedule generators for the
  shapes the paper motivates (stable, bounded churn, correlated outage
  incl. the May-2023 Ethereum incident, diurnal, linear ramp).
* :mod:`repro.workloads.transactions` — reproducible transaction
  arrival streams.
* :mod:`repro.workloads.scenarios` — one prebuilt
  :class:`~repro.engine.spec.RunSpec` per paper claim, shared by
  benches, examples, and integration tests; run one with
  :func:`~repro.engine.backend.run_spec`.
"""

from repro.workloads.participation import (
    RampSchedule,
    churn_walk,
    diurnal,
    ethereum_may_2023,
    outage,
    stable,
)
from repro.workloads.scenarios import (
    blackout_scenario,
    churn_scenario,
    ethereum_outage_scenario,
    split_vote_attack_scenario,
    surge_scenario,
    throughput_scenario,
)
from repro.workloads.transactions import (
    SubmissionRateWorkload,
    burst_stream,
    constant_rate_stream,
)

__all__ = [
    "RampSchedule",
    "SubmissionRateWorkload",
    "blackout_scenario",
    "burst_stream",
    "churn_scenario",
    "churn_walk",
    "constant_rate_stream",
    "diurnal",
    "ethereum_may_2023",
    "ethereum_outage_scenario",
    "outage",
    "split_vote_attack_scenario",
    "stable",
    "surge_scenario",
    "throughput_scenario",
]
