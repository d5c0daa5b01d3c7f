"""The unified execution engine.

One protocol/adversary/schedule stack over both execution substrates:

* :mod:`repro.engine.registry` — named protocol constructors
  (:data:`PROTOCOLS`) shared by the simulator, the deployment runner,
  the CLI, and the scenario library.
* :mod:`repro.engine.bus` — the indexed :class:`MessageBus` behind the
  round simulator's dissemination layer (per-recipient cursors +
  backlogs over one round-bucketed log).
* :mod:`repro.engine.conditions` — substrate-independent
  :class:`NetworkConditions` (asynchronous periods that map to
  adversarial delivery in the simulator and latency surges in
  deployments).
* :mod:`repro.engine.spec` — the :class:`RunSpec` describing one run
  independently of where it executes.
* :mod:`repro.engine.backend` — the :class:`ExecutionBackend`
  interface, :class:`EngineResult`, and the model logic every backend
  shares (corruption tracking, honest/adversary message checks,
  transaction arrival, trace metadata).
* :mod:`repro.engine.ingest` — the shared message-ingestion pipeline
  (:class:`IngestPipeline`): run-wide cached verification, message
  interning, and per-delivery :class:`~repro.sleepy.messages.VerifiedBatch`
  sharing between receivers.
* :mod:`repro.engine.sim_backend` / :mod:`repro.engine.deploy_backend`
  — the two substrates.
* :mod:`repro.engine.sweep` — the sweep harness: :class:`SweepSpec`
  parameter grids, the windowed :func:`stream_sweep` generator (bounded
  memory, per-cell reducers) fanning independent :class:`RunSpec`\\ s
  across a process pool — and :class:`SweepJournal`, the checkpoint/resume
  layer keying each cell's reduced row by a content-derived digest
  (:func:`~repro.engine.spec.stable_digest`).

Submodules that depend on the simulator or the protocol implementations
are loaded lazily (PEP 562) so that low-level modules may import the
bus and error types without cycles.
"""

from __future__ import annotations

from repro.engine.bus import MessageBus
from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.errors import ModelViolationError, UndeliverableMessageError
from repro.engine.spec import RunSpec

__all__ = [
    "AsyncPeriod",
    "CorruptionTracker",
    "DeploymentBackend",
    "EngineResult",
    "ExecutionBackend",
    "IngestPipeline",
    "MessageBus",
    "ModelViolationError",
    "NetworkConditions",
    "PROTOCOLS",
    "ProtocolRegistry",
    "ProtocolSpec",
    "RunSpec",
    "SimulationBackend",
    "SweepCell",
    "SweepJournal",
    "SweepOutcome",
    "SweepSpec",
    "UndeliverableMessageError",
    "canonical_form",
    "run_spec",
    "stable_digest",
    "stream_sweep",
    "sweep_rows",
]

_LAZY = {
    "CorruptionTracker": "repro.engine.backend",
    "DeploymentBackend": "repro.engine.deploy_backend",
    "EngineResult": "repro.engine.backend",
    "ExecutionBackend": "repro.engine.backend",
    "IngestPipeline": "repro.engine.ingest",
    "PROTOCOLS": "repro.engine.registry",
    "ProtocolRegistry": "repro.engine.registry",
    "ProtocolSpec": "repro.engine.registry",
    "SimulationBackend": "repro.engine.sim_backend",
    "SweepCell": "repro.engine.sweep",
    "SweepJournal": "repro.engine.sweep",
    "SweepOutcome": "repro.engine.sweep",
    "SweepSpec": "repro.engine.sweep",
    "canonical_form": "repro.engine.spec",
    "run_spec": "repro.engine.backend",
    "stable_digest": "repro.engine.spec",
    "stream_sweep": "repro.engine.sweep",
    "sweep_rows": "repro.engine.sweep",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
