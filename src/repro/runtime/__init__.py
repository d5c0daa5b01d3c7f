"""Real-time deployment runtime (rounds of Δ = 3δ over gossip).

* :mod:`repro.runtime.clock` — the round clock.
* :mod:`repro.runtime.node` — a protocol process bridged onto gossip.
* :mod:`repro.runtime.shard` — :class:`ShardRuntime`, the one node
  assembly every deployment substrate runs, and its payload merge.
* :mod:`repro.runtime.coordinator` — :class:`Coordinator` and
  :class:`ControlChannel`, the two ends of the control handshake.
* :mod:`repro.runtime.worker` — the multi-process worker entrypoint
  (one shard per process, joined over sockets).
* :mod:`repro.runtime.metrics` — live service telemetry (counters,
  histograms, an HTTP JSON scrape endpoint).
"""

from repro.runtime.clock import ROUND_FACTOR, RoundClock
from repro.runtime.coordinator import ControlChannel, Coordinator
from repro.runtime.metrics import Histogram, MetricsHub, MetricsServer, SourcedMetrics
from repro.runtime.node import DeployedNode
from repro.runtime.shard import ShardRuntime, WorkerConfig, drive_node, shard_pids
from repro.runtime.worker import worker_main

__all__ = [
    "ROUND_FACTOR",
    "RoundClock",
    "ControlChannel",
    "Coordinator",
    "DeployedNode",
    "Histogram",
    "MetricsHub",
    "MetricsServer",
    "ShardRuntime",
    "SourcedMetrics",
    "WorkerConfig",
    "drive_node",
    "shard_pids",
    "worker_main",
]
