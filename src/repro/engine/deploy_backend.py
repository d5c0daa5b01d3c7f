"""The wall-clock asyncio deployment as an execution backend.

The same :class:`~repro.engine.spec.RunSpec` that drives the round
simulator is driven here by real rounds (Δ = 3δ) over an asyncio gossip
network with seeded latencies — protocol construction, transaction
arrival, corruption bookkeeping, and trace assembly all come from the
shared engine layer, so schedules, adversaries, and workloads written
for one substrate run on the other.

Substrate differences (inherent, not incidental):

* **Delivery control.**  The simulator grants the adversary *logical*
  per-receiver delivery choice during asynchronous rounds.  The
  deployment realises asynchrony *physically*, as links slower than Δ:
  the flood multiplies a link's draw by the surge factor of the period
  holding the instant the frame starts crossing and, under an attack
  script, by the script's factor on that link too
  (:mod:`repro.net.gossip`), while the
  :class:`~repro.net.proxy_transport.ProxyTransport`'s ``fate`` holds
  or drops frames per link — so round-``r`` messages arrive rounds
  late.  An adversary's ``deliver`` hook is not consulted here, which is
  why a script is checked against the fabric before anything runs
  (:meth:`DeploymentBackend._check_realisable`): ``split_vote`` chooses
  per receiver and is refused on every process count; the ops that sign
  as corrupted processes (``equivocate``, ``vote_for``, ``propose``)
  need the live adversary and are refused at ``processes > 1``; a
  per-link ``surge`` or ``drop`` naming a pair that is no hop of the
  gossip overlay is refused, since no frame crosses it;
  ``partition``, ``surge``, ``withhold``, ``corrupt`` and
  ``sleep``/``wake`` run as written everywhere, and ``drop`` really
  loses frames.

One runner, one round step.  Every run is k shards, each a
:class:`~repro.runtime.shard.ShardRuntime` running the round step the
simulator runs (:func:`~repro.engine.round.step`) on its clock
(:meth:`~repro.runtime.shard.ShardRuntime.drive`) under
:func:`~repro.runtime.worker.run_worker`, and sequenced by a
:class:`~repro.runtime.coordinator.Coordinator`, whose payloads fold
into one :class:`~repro.sleepy.trace.Trace` and one ``extras`` shape:
their samples through :func:`~repro.runtime.metrics.merge_samples`, the
one merge ``/metrics`` serves too.  Shard 0
runs in this process, on the caller's event loop, over an in-memory
control channel; shards 1..k−1 run in k − 1 spawned processes, so a
k-shard run starts k − 1 interpreters and ``processes=1`` (the default)
spawns nothing and opens no socket.  The fabric is the only choice
that depends on k: a :class:`~repro.net.transport.SimTransport` at
k = 1, a socket mesh beyond.  Every shard starts its round clock at one
start instant, which the coordinator puts a few handshake legs ahead
(``extras["lifecycle"]`` records the handshake and each shard's span,
the ``phase_lateness_s`` histogram how late each phase woke).  Shard
0's payload reaches the merge in memory; only the spawned ones are pickled.

One trace recorder.  Each shard's
:class:`~repro.sleepy.trace.TraceRecorder` records every publish of the
shard's round steps, as the simulator's does, and
:meth:`DeploymentBackend._assemble_trace` folds the k records into the
trace, offering each block once.  The adversary's ``send`` runs live,
in the round step, only where one shard holds every node, reading the
canonical tree of that shard's one chain; the run's ``extras["nodes"]``
are then that shard's nodes.

Two fields configure a run: δ and the shard count.  Everything else is
a fact of the code, the same in every shard: protocols resolve by name
through the one :data:`~repro.engine.registry.PROTOCOLS`, every node's
phases start on one round clock (the model's synchronized clocks),
every gossip dedup index forgets keys η +
:data:`~repro.sleepy.horizon.SEEN_SLACK_ROUNDS` rounds behind the
shard's round and every verifier the verdicts below that floor, and
every mempool is bounded at
:data:`~repro.chain.transactions.MEMPOOL_CAPACITY`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.attacks.adversary import ScriptedAdversary
from repro.attacks.script import DropOp, Op, SurgeOp
from repro.engine.backend import EngineResult, ExecutionBackend, base_meta
from repro.engine.spec import RunSpec
from repro.runtime.clock import RECEIVE_FRACTION, ROUND_FACTOR
from repro.runtime.coordinator import Coordinator
from repro.runtime.metrics import SourcedMetrics, merge_samples
from repro.runtime.shard import WorkerConfig, overlay, shard_pids
from repro.runtime.worker import run_worker, worker_main
from repro.sleepy.trace import Trace, TraceRecorder


def _named_links(op: Op) -> tuple[tuple[int, int], ...]:
    """The ``(src, dst)`` links ``op`` spells out, both ends named."""
    if isinstance(op, SurgeOp):
        return op.links or ()
    if isinstance(op, DropOp) and op.src is not None and op.dst is not None:
        return ((op.src, op.dst),)
    return ()


@dataclass
class DeploymentBackend(ExecutionBackend):
    """Executes a :class:`RunSpec` over real time, gossip, and latency."""

    delta_s: float = 0.02
    #: Shards to split the nodes across.  ``1`` = one shard in this
    #: process; ``k > 1`` = k socket-mesh workers, shard 0 in this
    #: process and k − 1 spawned.
    processes: int = 1

    name = "deployment"
    #: Where in its round every node receives (not a knob: the clock's constant).
    receive_fraction = RECEIVE_FRACTION
    #: Real-time substrate: sweeps run it in the serial lane (one
    #: asyncio deployment at a time), never across a process pool.
    poolable = False

    def execute(self, spec: RunSpec) -> EngineResult:
        """Synchronous entry point (creates its own event loop)."""
        return asyncio.run(self.execute_async(spec))

    async def execute_async(
        self, spec: RunSpec, collector: SourcedMetrics | None = None
    ) -> EngineResult:
        """Run one deployment inside a running event loop.

        A ``collector`` receives every shard's live sample while the run
        is in flight and its final one after, so a
        :class:`~repro.runtime.metrics.MetricsServer` serving
        ``collector.merged`` serves live state.  It belongs to the run
        it watches, not to the backend: telemetry wiring never enters
        ``identity()`` or a sweep-journal digest.
        """
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        self._check_realisable(spec)
        shards = shard_pids(spec.n, self.processes)

        def on_frame(frame: tuple) -> None:
            if frame[0] == "metrics":
                collector.push(frame[1], frame[2])

        coordinator = Coordinator(
            len(shards),
            budget_s=60.0 + 2.0 * spec.rounds * ROUND_FACTOR * self.delta_s + 5.0 * len(shards),
            # Shards push live samples only to a coordinator listening.
            on_frame=None if collector is None else on_frame,
        )
        mesh = (coordinator.addresses, coordinator.control_address)
        configs = [self._shard_config(spec, wid, shards, *mesh) for wid in range(len(shards))]
        # Shard 0 fills ``nodes`` when it holds every node (k = 1).
        nodes: dict | None = {} if len(shards) == 1 else None
        worker_args = [(configs[0], nodes), *((config,) for config in configs[1:])]
        payloads = await coordinator.run(run_worker, worker_main, worker_args)
        # The coordinator picked the start instant from its handshake;
        # each shard says how long it drove from there.  The wall is the
        # rounds' span: set-up is ``setup_s``.
        spans = [payload["span_s"] for payload in payloads]
        lifecycle = {**coordinator.lifecycle, "span_s": spans}
        extras = {"processes": len(shards), "shards": shards, "lifecycle": lifecycle}
        if nodes is not None:
            extras["nodes"] = nodes
        if collector is not None:
            for payload in payloads:
                collector.push(payload["worker_id"], payload["sample"])
        merged = merge_samples([payload["sample"] for payload in payloads])
        return EngineResult(
            trace=self._assemble_trace(spec, [payload["record"] for payload in payloads]),
            backend=self.name,
            wall_seconds=max(lifecycle["span_s"]),
            messages_sent=merged["transport"]["sent"],
            extras={**merged, **extras},
        )

    def _check_realisable(self, spec: RunSpec) -> None:
        """Refuse, before anything runs, an adversary this fabric cannot be.

        Besides the powers an op needs, a per-link op (``surge`` with
        ``links``, ``drop`` with both ends named) must name hops of the
        run's gossip overlay: frames cross those only, so an op on any
        other pair would realise nothing.
        """
        adversary = spec.adversary
        if isinstance(adversary, ScriptedAdversary):
            granted = {"frame-loss"} | ({"signing"} if self.processes == 1 else set())
            hops = overlay(spec)
            for record in adversary.script.phases:
                for op in record.ops:
                    if op.needs - granted:
                        raise ValueError(
                            f"{op.op} needs {' and '.join(sorted(op.needs - granted))}, which a "
                            f"deployment on {self.processes} process(es) does not grant"
                        )
                    for src, dst in _named_links(op):
                        if dst not in hops.get(src, ()):
                            raise ValueError(
                                f"{op.op} names the link ({src}, {dst}), which is no hop of "
                                f"the gossip overlay (n={spec.n}, seed={spec.seed}): a "
                                "deployment realises per-link ops on overlay hops only"
                            )
        elif adversary is not None and self.processes > 1:
            raise ValueError(
                f"{type(adversary).__name__} needs processes=1: a live adversary "
                "reads the omniscient block tree, which cannot span processes"
            )

    def _shard_config(self, spec, worker_id, shards, addresses, control_address) -> WorkerConfig:
        """This backend's knobs as the config of shard ``worker_id``."""
        return WorkerConfig(
            worker_id=worker_id,
            shard=shards[worker_id],
            owner={pid: wid for wid, shard in enumerate(shards) for pid in shard},
            addresses=addresses,
            control_address=control_address,
            spec=spec,
            delta_s=self.delta_s,
        )

    def _assemble_trace(self, spec: RunSpec, records: Sequence[Mapping]) -> Trace:
        """Fold the k shard records (payload ``record``s, in worker
        order) into one trace, offering each block once."""
        recorder = TraceRecorder(
            spec.n,
            meta=base_meta(spec, delta_s=self.delta_s, deployment=True, backend=self.name),
        )
        for record in records:
            recorder.fold(record)
        schedule = spec.resolved_schedule()
        conditions = spec.resolved_conditions()
        adversary = spec.resolved_adversary()
        for r in range(spec.rounds):
            recorder.close_round(
                r, schedule.awake(r), adversary.byzantine(r), conditions.is_asynchronous(r)
            )
        trace = recorder.trace
        trace.decisions.sort(key=lambda d: (d.round, d.pid))
        return trace
