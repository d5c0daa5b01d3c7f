"""Real-time deployment runtime (rounds of Δ = 3δ over gossip).

* :mod:`repro.runtime.clock` — the round clock.
* :mod:`repro.runtime.node` — a protocol process bridged onto gossip.
* :mod:`repro.runtime.delivery` — a shard's receive side: one
  message bus its nodes read with a cursor each.
* :mod:`repro.runtime.shard` — :class:`ShardRuntime`, the one node
  assembly every deployment substrate runs (the round step on its
  clock) and the one sample it reports.
* :mod:`repro.runtime.coordinator` — :class:`Coordinator` and
  :class:`ControlChannel`, the two ends of the control handshake.
* :mod:`repro.runtime.worker` — every deployment's one worker body
  (shard 0 on the coordinator's loop, one spawned process per other
  shard, joined over sockets when there are several).
* :mod:`repro.runtime.metrics` — live service telemetry (the hub's
  counters and histograms, ``merge_samples`` — the one fold of shard
  samples, for ``extras`` and ``/metrics`` alike — and an HTTP JSON
  scrape endpoint).
"""

from repro.runtime.clock import ROUND_FACTOR, RoundClock
from repro.runtime.coordinator import ControlChannel, Coordinator
from repro.runtime.metrics import Histogram, MetricsHub, MetricsServer, SourcedMetrics
from repro.runtime.node import DeployedNode
from repro.runtime.shard import ShardRuntime, WorkerConfig, shard_pids
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
    "shard_pids",
    "worker_main",
]
