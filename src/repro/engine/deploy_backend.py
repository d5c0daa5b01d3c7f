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
  deployment realises asynchrony *physically*: latencies surge past δ
  (:class:`~repro.net.transport.SurgeWindow`), or — under an attack
  script — the :class:`~repro.net.proxy_transport.ProxyTransport` holds,
  delays or drops frames per link, so round-``r`` messages arrive rounds
  late.  An adversary's ``deliver`` hook is not consulted here, which is
  why a script is checked against the fabric before anything runs
  (:meth:`~repro.attacks.script.AttackScript.requires`): ``split_vote``
  chooses per receiver and is refused on every process count; the ops
  that sign as corrupted processes (``equivocate``, ``vote_for``,
  ``propose``) need the in-process driver and are refused at
  ``processes > 1``; ``partition``, ``surge``, ``withhold``, ``corrupt``
  and ``sleep``/``wake`` run as written everywhere, and ``drop`` really
  loses frames.
* **Corruption schedule.**  ``Adversary.byzantine`` is treated as a
  schedule and resolved round by round before the run starts (it may
  not depend on execution state — none of the model's adversaries do);
  the adversary's ``send`` power runs live, in round, against the
  omniscient block tree exactly as in the simulator.

There is one deployment runtime over two fabrics.  Every run is k
shards, each a :class:`~repro.runtime.shard.ShardRuntime`, whose
payloads :func:`~repro.runtime.shard.merge_payloads` folds into one
:class:`~repro.sleepy.trace.Trace` and one ``extras`` shape.
``processes=1`` (the default) is one shard covering every node, in this
process, over a :class:`~repro.net.transport.SimTransport`; it alone
hosts a live (non-scripted) adversary.  ``processes=k`` is k
:mod:`repro.runtime.worker` shards joined by a socket mesh and sequenced
by a :class:`~repro.runtime.coordinator.Coordinator`, with all round
clocks anchored at one shared wall-clock instant, which the coordinator
puts a few handshake legs ahead (``extras["lifecycle"]`` records the
handshake and each worker's start lateness): shard 0 runs in this
process, on the caller's event loop, and shards 1..k−1 in k − 1 spawned
processes, so a k-shard run starts k − 1 interpreters.  Shard 0's
payload reaches the merge in memory; only the spawned shards' payloads
are pickled.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.attacks.adversary import ScriptedAdversary
from repro.chain.block import Block, genesis_block
from repro.chain.store import BlockBuffer
from repro.chain.tree import BlockTree
from repro.engine.backend import (
    CorruptionTracker,
    EngineResult,
    ExecutionBackend,
    base_meta,
    check_adversary_message,
)
from repro.engine.registry import PROTOCOLS, ProtocolRegistry
from repro.engine.spec import RunSpec
from repro.net.transport import SimTransport
from repro.runtime.clock import ROUND_FACTOR
from repro.runtime.coordinator import Coordinator
from repro.runtime.metrics import SourcedMetrics
from repro.runtime.shard import (
    ShardRuntime,
    WorkerConfig,
    corruption_schedule,
    link_model,
    merge_payloads,
    shard_pids,
)
from repro.runtime.worker import run_worker, worker_main
from repro.sleepy.adversary import AdversaryContext
from repro.sleepy.messages import Message, ProposeMessage
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace


@dataclass
class DeploymentBackend(ExecutionBackend):
    """Executes a :class:`RunSpec` over real time, gossip, and latency."""

    delta_s: float = 0.02
    gossip_degree: int = 4
    #: Maximum absolute clock offset per node, in seconds.  The paper
    #: assumes synchronized clocks; in practice δ must absorb small
    #: skews, which this knob injects (each node's phase boundaries are
    #: shifted by a seeded offset in ``[-clock_skew_s, +clock_skew_s]``).
    clock_skew_s: float = 0.0
    receive_fraction: float = 0.9
    #: Shards to split the nodes across.  ``1`` = one shard in this
    #: process; ``k > 1`` = k socket-mesh workers, shard 0 in this
    #: process and k − 1 spawned.
    processes: int = 1
    #: Per-node mempool bound (transactions shed-and-counted past it);
    #: ``None`` = unbounded, the historical behaviour.
    mempool_capacity: int | None = None
    #: Gossip dedup-entry retention, in rounds behind the live round
    #: (see :class:`~repro.net.gossip.GossipNode`); ``None`` = retain
    #: forever, the historical behaviour for bounded experiments.
    gossip_seen_horizon: int | None = None
    protocols: ProtocolRegistry = field(repr=False, default_factory=lambda: PROTOCOLS)

    name = "deployment"
    #: Real-time substrate: sweeps run it in the serial lane (one
    #: asyncio deployment at a time), never across a process pool.
    poolable = False

    def attach_metrics(self, collector: SourcedMetrics) -> None:
        """Attach a live telemetry collector for the next run(s).

        Workers (or the single process) push cumulative metric
        snapshots into it while the run is in flight, so a
        :class:`~repro.runtime.metrics.MetricsServer` scraping
        ``collector.merged`` serves live state.  Stored outside the
        dataclass fields on purpose: telemetry wiring must not enter
        ``identity()`` / sweep-journal digests.
        """
        self._metrics_collector = collector

    def execute(self, spec: RunSpec) -> EngineResult:
        """Synchronous entry point (creates its own event loop)."""
        return asyncio.run(self.execute_async(spec))

    async def execute_async(self, spec: RunSpec) -> EngineResult:
        """Run one deployment inside a running event loop."""
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        self._check_realisable(spec)
        run = self._run_workers if self.processes > 1 else self._run_in_process
        payloads, wall, extras = await run(spec)
        collector = getattr(self, "_metrics_collector", None)
        if collector is not None:
            for payload in payloads:
                collector.push(f"worker{payload['worker_id']}", payload["metrics"])
        merged = merge_payloads(payloads)
        trace = self._assemble_trace(
            spec,
            corruption_schedule(spec),
            merged.pop("sent_by_round"),
            merged.pop("decisions"),
            merged.pop("blocks"),
        )
        return EngineResult(
            trace=trace,
            backend=self.name,
            wall_seconds=wall,
            messages_sent=merged["transport"]["sent"],
            extras={**merged, **extras},
        )

    def _check_realisable(self, spec: RunSpec) -> None:
        """Refuse, before anything runs, an adversary this fabric cannot be."""
        adversary = spec.adversary
        if isinstance(adversary, ScriptedAdversary):
            granted = {"frame-loss"} | ({"signing"} if self.processes == 1 else set())
            for record in adversary.script.phases:
                for op in record.ops:
                    if op.needs - granted:
                        raise ValueError(
                            f"{op.op} needs {' and '.join(sorted(op.needs - granted))}, which a "
                            f"deployment on {self.processes} process(es) does not grant"
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
            gossip_degree=self.gossip_degree,
            receive_fraction=self.receive_fraction,
            clock_skew_s=self.clock_skew_s,
            seen_horizon_rounds=self.gossip_seen_horizon,
            mempool_capacity=self.mempool_capacity,
        )

    def _in_process_shard(self, spec: RunSpec, on_publish=None) -> ShardRuntime:
        """Every node as one shard, in this process, over a fresh ``SimTransport``."""
        transport = SimTransport(
            spec.n,
            # The in-process path rides the same delivery wheel
            # as the socket fabric: one timer per slot, not per message.
            # Half the modelled jitter width, so quantization (< one
            # slot) hides inside jitter with real-time margin to spare
            # before the 0.9 Δ receive phase even when the host stalls.
            slot_s=self.delta_s / 16,
            **link_model(spec, self.delta_s),
        )
        config = self._shard_config(spec, 0, shard_pids(spec.n, 1), {}, None)
        return ShardRuntime(config, transport, protocols=self.protocols, on_publish=on_publish)

    async def _run_in_process(self, spec: RunSpec) -> tuple[list, float, dict]:
        """Drive the one shard, plus the live adversary only it can host.

        The adversary's send power needs the omniscient block tree,
        which cannot span processes.  Attack phases flip on loop timers.
        """
        adversary = spec.resolved_adversary()
        tree = BlockTree([genesis_block()])
        # Omniscient adversary/trace tree: lossless, never evicts.
        tree_buffer = BlockBuffer(tree, max_orphans_per_source=None)

        def on_publish(message: Message) -> None:
            if isinstance(message, ProposeMessage) and message.block is not None:
                tree_buffer.offer(message.block)

        shard = self._in_process_shard(spec, on_publish)
        clock = shard.clock
        ctx = AdversaryContext(shard.registry, tree)
        # Keys are handed over and monotonicity enforced round by round
        # here, as in the simulator; the resolved schedule only peeked.
        tracker = CorruptionTracker(adversary, ctx)

        async def drive_adversary() -> None:
            for r in range(spec.rounds):
                await clock.sleep_until_elapsed(clock.start_of(r))
                ctx.round = r
                byz = tracker.corrupted(r)
                for message in adversary.send(r, ctx):
                    check_adversary_message(message, byz)
                    shard.publish(message.sender, r, message)

        collector = getattr(self, "_metrics_collector", None)

        async def report(snapshot: dict) -> None:
            collector.push("worker0", snapshot)

        loop = asyncio.get_running_loop()
        shard.transport.start()
        clock.start()
        if shard.proxy is not None:
            shard.proxy.schedule_phases()
        started = loop.time()
        await shard.drive(drive_adversary(), report=report if collector is not None else None)
        shard.stop()
        # No linger: nothing is in flight outside this process, and the
        # virtual-time bench pins wall == (rounds − 1 + receive_fraction)·Δ.
        wall = loop.time() - started
        extras = {"nodes": shard.nodes, "adversary_tree": tree}
        return [shard.payload(extra_trees=(tree,))], wall, extras

    async def _run_workers(self, spec: RunSpec) -> tuple[list, float, dict]:
        """Run k shards over the socket mesh: shard 0 here, the rest spawned."""
        scripted = isinstance(spec.adversary, ScriptedAdversary)
        if self.protocols is not PROTOCOLS:
            raise ValueError(
                "multi-process deployments resolve protocols by name from "
                "the default registry inside each worker; custom registries "
                "need processes=1"
            )
        shards = shard_pids(spec.n, self.processes)
        round_s = ROUND_FACTOR * self.delta_s
        collector = getattr(self, "_metrics_collector", None)

        def on_frame(frame: tuple) -> None:
            if frame[0] == "metrics" and collector is not None:
                collector.push(f"worker{frame[1]}", frame[2])

        coordinator = Coordinator(
            len(shards),
            budget_s=60.0 + 2.0 * spec.rounds * round_s + 5.0 * len(shards),
            on_frame=on_frame,
        )

        async def drive_attack_phases(start_wall: float) -> None:
            # The coordinator owns the script's phase schedule: each
            # transition is broadcast over the control channel at its
            # wall-clock instant, and every worker's proxy flips within
            # socket latency of the same moment (all round clocks are
            # anchored to the same origin, so "round k" is one instant).
            for index, start_round in enumerate(spec.adversary.timeline.phase_starts()):
                if index == 0:
                    continue
                await asyncio.sleep(max(0.0, start_wall + start_round * round_s - time.time()))
                await coordinator.broadcast(("attack_phase", index))

        mesh = (coordinator.addresses, coordinator.control_address)
        payloads = await coordinator.run(
            run_worker,
            worker_main,
            [(self._shard_config(spec, wid, shards, *mesh),) for wid in range(len(shards))],
            mid_run=drive_attack_phases if scripted else None,
        )
        # The coordinator picked the start instant from its handshake;
        # each worker says how late it anchored there and how long it
        # drove.  The wall is the rounds' span, as in process: spawn and
        # handshake are ``setup_s``.
        lifecycle = dict(coordinator.lifecycle)
        for key in ("start_lateness_s", "span_s"):
            lifecycle[key] = [payload["lifecycle"][key] for payload in payloads]
        extras = {"processes": len(shards), "shards": shards, "lifecycle": lifecycle}
        return payloads, max(lifecycle["span_s"]), extras

    def _assemble_trace(
        self,
        spec: RunSpec,
        byz_by_round: dict[int, frozenset[int]],
        sent_by_round: list[list[int]],
        decisions: Iterable[DecisionEvent],
        pending_blocks: Iterable[Block],
    ) -> Trace:
        # Merge every shard's block views (plus adversary-minted blocks
        # on the in-process path) into one omniscient analysis tree.
        # Each payload lists parents before children, so no sort is
        # needed; a block two shards both hold is offered twice.
        tree = BlockTree([genesis_block()])
        # Merging already-validated local trees: lossless, never evicts.
        buffer = BlockBuffer(tree, max_orphans_per_source=None)
        for block in pending_blocks:
            buffer.offer(block)

        trace = Trace(
            n=spec.n,
            tree=tree,
            meta=base_meta(
                spec, self.protocols, delta_s=self.delta_s, deployment=True, backend=self.name
            ),
        )
        schedule = spec.resolved_schedule()
        conditions = spec.resolved_conditions()
        for r in range(spec.rounds):
            byz = byz_by_round[r]
            awake = schedule.awake(r) | byz  # Byzantine processes never sleep.
            votes, proposes, other = sent_by_round[r]
            trace.rounds.append(
                RoundRecord(
                    round=r,
                    awake=awake,
                    byzantine=byz,
                    asynchronous=conditions.is_asynchronous(r),
                    votes_sent=votes,
                    proposes_sent=proposes,
                    other_sent=other,
                )
            )
        trace.decisions.extend(decisions)
        trace.decisions.sort(key=lambda d: (d.round, d.pid))
        return trace
