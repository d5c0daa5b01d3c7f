"""The unified execution engine.

One protocol/adversary/schedule stack over both execution substrates:

* :mod:`repro.engine.registry` — named protocol constructors
  (:data:`PROTOCOLS`) shared by the simulator, the deployment runner,
  the CLI, and the scenario library.
* :mod:`repro.engine.bus` — the indexed :class:`MessageBus` every
  receiver reads, in the round simulator and in a deployment shard
  (per-recipient cursors + backlogs over one compacted log).
* :mod:`repro.engine.conditions` — substrate-independent
  :class:`NetworkConditions` (asynchronous periods that map to
  adversarial delivery in the simulator and, round by round, latency
  surges in deployments).
* :mod:`repro.engine.spec` — the :class:`RunSpec` describing one run
  independently of where it executes.
* :mod:`repro.engine.backend` — the :class:`ExecutionBackend`
  interface, :class:`EngineResult`, :func:`run_spec` (the one way to run
  a spec), and the model logic every backend shares (corruption
  tracking, honest/adversary message checks, trace metadata).
* :mod:`repro.engine.ingest` — the shared message-ingestion pipeline
  (:class:`IngestPipeline`): run-wide cached verification, message
  interning, and per-delivery :class:`~repro.sleepy.messages.VerifiedBatch`
  sharing between receivers.
* :mod:`repro.engine.round` — the one round step both substrates run.
* :mod:`repro.engine.sim_backend` / :mod:`repro.engine.deploy_backend`
  — the two substrates.
* :mod:`repro.engine.sweep` — the sweep harness: :class:`SweepSpec`
  parameter grids, the windowed :func:`stream_sweep` generator (bounded
  memory, per-cell reducers) fanning independent :class:`RunSpec`\\ s
  across a process pool — and :class:`SweepJournal`, the checkpoint/resume
  layer keying each cell's reduced row by a content-derived digest
  (:func:`~repro.engine.spec.stable_digest`).

The package itself imports nothing: import each name from the module
that defines it.
"""
