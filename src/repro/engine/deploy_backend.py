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
  (:class:`~repro.net.transport.SurgeWindow`), so round-``r`` messages
  arrive rounds late but are never lost.  An adversary's ``deliver``
  hook is therefore not consulted here.
* **Corruption schedule.**  ``Adversary.byzantine`` is treated as a
  schedule and resolved round by round before the run starts (it may
  not depend on execution state — none of the model's adversaries do);
  the adversary's ``send`` power runs live, in round, against the
  omniscient block tree exactly as in the simulator.

Setting ``processes > 1`` shards the deployment across real worker
processes (:mod:`repro.runtime.worker`) joined by a socket mesh
(:mod:`repro.net.socket_transport`): the backend becomes a
*coordinator* that spawns workers, sequences the
ready → dial → start → result → shutdown control protocol, anchors all
round clocks at one shared wall-clock instant, and merges the shards'
block trees, decisions, and telemetry into the same
:class:`~repro.sleepy.trace.Trace` the single-process path produces.
``processes=1`` (the default) keeps the historical in-process path
byte for byte.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.attacks.adversary import ScriptedAdversary
from repro.chain.block import Block, genesis_block
from repro.chain.store import BlockBuffer
from repro.chain.tree import BlockTree
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import (
    CorruptionTracker,
    EngineResult,
    ExecutionBackend,
    base_meta,
    check_adversary_message,
    count_kinds,
)
from repro.engine.conditions import NetworkConditions, conditions_from_network
from repro.engine.ingest import IngestPipeline
from repro.engine.registry import PROTOCOLS, ProtocolRegistry
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, regular_topology
from repro.net.proxy_transport import AUDIT_KEYS, ProxyTransport
from repro.net.socket_transport import (
    encode_frame,
    read_frame,
    serve_stream,
    supports_unix_sockets,
)
from repro.net.transport import SimTransport
from repro.runtime.clock import RoundClock
from repro.runtime.metrics import MetricsHub, SourcedMetrics
from repro.runtime.node import DeployedNode
from repro.runtime.worker import (
    WorkerConfig,
    clock_skew_offsets,
    drive_node,
    shard_arrivals,
    shard_pids,
    worker_main,
)
from repro.sleepy.adversary import AdversaryContext
from repro.sleepy.messages import Message, ProposeMessage
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace


def _free_tcp_address() -> tuple[str, int]:
    """A loopback TCP address that was free a moment ago (UDS fallback)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return ("127.0.0.1", address[1])


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
    #: Worker processes to shard the nodes across.  ``1`` = the
    #: historical in-process path; ``> 1`` = socket-mesh workers.
    processes: int = 1
    #: Per-node mempool bound (transactions shed-and-counted past it);
    #: ``None`` = unbounded, the historical behaviour.
    mempool_capacity: int | None = None
    #: Gossip dedup-entry retention, in rounds behind the live round
    #: (see :class:`~repro.net.gossip.GossipNode`); ``None`` = retain
    #: forever, the historical behaviour for bounded experiments.
    gossip_seen_horizon: int | None = None
    #: The batched wire path (frame v2 batch writes, digest-interned
    #: payload encoding, δ/8 slot-coalesced delivery timers) on every
    #: substrate flavour; ``False`` keeps the historical per-frame
    #: pickle/timer/write path — the wire-throughput bench's baseline.
    wire_batching: bool = True
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
        if self.processes > 1:
            return await self._execute_multiprocess(spec)
        return await self._execute_single(spec)

    # ------------------------------------------------------------------
    # Single-process path (the historical substrate, unchanged semantics)
    # ------------------------------------------------------------------
    async def _execute_single(self, spec: RunSpec) -> EngineResult:
        """One event loop hosting every node (bit-identical legacy path)."""
        conditions = self._conditions(spec)
        registry = KeyRegistry(spec.n, run_seed=spec.seed)
        verifier = IngestPipeline(registry)
        clock = RoundClock(self.delta_s)
        factory = self.protocols.factory(
            spec.protocol,
            eta=spec.eta,
            beta=spec.beta,
            record_telemetry=spec.record_telemetry,
        )

        transport = SimTransport(
            spec.n,
            base_latency_s=self.delta_s / 8,
            jitter_s=self.delta_s / 8,
            seed=spec.seed,
            surges=conditions.surge_windows(clock.round_s),
            # The in-process queue path rides the same delivery wheel
            # as the socket fabric: one timer per slot, not per message.
            # Half the modelled jitter width, so quantization (< one
            # slot) hides inside jitter with real-time margin to spare
            # before the 0.9 Δ receive phase even when the host stalls.
            slot_s=self.delta_s / 16 if self.wire_batching else None,
        )
        # A scripted adversary's delivery effects (partition/surge/drop)
        # are realised physically by the proxy layer in front of the
        # fabric; its corruption and send powers flow through the normal
        # adversary seam below.
        proxy: ProxyTransport | None = None
        fabric = transport
        if isinstance(spec.adversary, ScriptedAdversary):
            proxy = ProxyTransport(
                transport,
                spec.adversary.timeline,
                seed=spec.seed,
                round_s=clock.round_s,
                base_latency_s=self.delta_s / 8,
            )
            fabric = proxy
        # Each node owns a private tree: the deployment models real
        # processes, which cannot intern each other's memory, so the
        # simulator's shared-chain views are deliberately not used here
        # (the factory is called without ``chain=``).
        nodes = {
            pid: DeployedNode(
                factory(pid, registry.secret_key(pid), verifier),
                schedule=spec.schedule,
                mempool_capacity=self.mempool_capacity,
            )
            for pid in range(spec.n)
        }
        network = GossipNetwork(
            fabric,
            regular_topology(spec.n, self.gossip_degree, seed=spec.seed),
            on_deliver=lambda pid, message: nodes[pid].on_gossip(message),
            current_round=clock.current_round if self.gossip_seen_horizon is not None else None,
            seen_horizon_rounds=self.gossip_seen_horizon,
        )

        # Adversary substrate: omniscient tree, key hand-over, and the
        # corruption schedule, all via the shared engine bookkeeping.
        adversary = spec.resolved_adversary()
        tree = BlockTree([genesis_block()])
        # Omniscient adversary/trace tree: lossless, never evicts.
        tree_buffer = BlockBuffer(tree, max_orphans_per_source=None)
        ctx = AdversaryContext(registry, tree)
        tracker = CorruptionTracker(adversary, ctx)
        # The corruption *schedule* is resolved up front (peek: no key
        # grants, no monotonicity bookkeeping); keys are handed over and
        # monotonicity enforced round by round in drive_adversary, as in
        # the simulator.
        byz_by_round = {r: tracker.peek(r) for r in range(spec.rounds + 1)}

        collector = getattr(self, "_metrics_collector", None)
        hub = MetricsHub() if collector is not None else None

        sent_by_round = [[0, 0, 0] for _ in range(spec.rounds)]

        def publish(pid: int, r: int, message: Message) -> None:
            votes, proposes, other = count_kinds((message,))
            counters = sent_by_round[r]
            counters[0] += votes
            counters[1] += proposes
            counters[2] += other
            if hub is not None:
                hub.inc("messages_published")
            if isinstance(message, ProposeMessage) and message.block is not None:
                tree_buffer.offer(message.block)
            network.nodes[pid].publish(message)

        transport.start()
        clock.start()
        network.start()
        if proxy is not None:
            proxy.schedule_phases()
        started = asyncio.get_running_loop().time()

        offsets = clock_skew_offsets(spec, self.clock_skew_s)
        arrivals = shard_arrivals(spec.arrivals)

        async def drive_adversary() -> None:
            for r in range(spec.rounds):
                await clock.sleep_until_elapsed(clock.start_of(r))
                ctx.round = r
                byz = tracker.corrupted(r)
                for message in adversary.send(r, ctx):
                    check_adversary_message(message, byz)
                    publish(message.sender, r, message)

        async def sample_metrics() -> None:
            from repro.runtime.worker import _sample_gauges

            while True:
                await asyncio.sleep(0.25)
                _sample_gauges(hub, fabric, network, nodes)
                collector.push("worker0", hub.snapshot())

        sampler = (
            asyncio.get_running_loop().create_task(sample_metrics())
            if collector is not None
            else None
        )
        # One driver task per node keeps phase timing independent per
        # node; each node reads the shared clock through its own
        # (skewed) lens.
        await asyncio.gather(
            *(
                drive_node(
                    node,
                    clock=clock,
                    rounds=spec.rounds,
                    offset=offsets[node.pid],
                    receive_fraction=self.receive_fraction,
                    byz_by_round=byz_by_round,
                    arrivals=arrivals,
                    publish=publish,
                    metrics=hub,
                )
                for node in nodes.values()
            ),
            drive_adversary(),
        )
        if sampler is not None:
            sampler.cancel()
            try:
                await sampler
            except asyncio.CancelledError:
                pass
        if proxy is not None:
            proxy.cancel_timers()
        await network.stop()
        wall = asyncio.get_running_loop().time() - started

        if collector is not None:
            from repro.runtime.worker import _sample_gauges

            _sample_gauges(hub, fabric, network, nodes)
            collector.push("worker0", hub.snapshot())

        pending: list[Block] = []
        locals_ = [node.process.tree for node in nodes.values()] + [tree]
        for local in locals_:
            for tip in local.tips():
                for block_id in local.path(tip):
                    pending.append(local.get(block_id))
        decisions = [decision for node in nodes.values() for decision in node.decisions]

        trace = self._assemble_trace(
            spec, conditions, byz_by_round, sent_by_round, decisions, pending
        )
        extras = {
            "nodes": nodes,
            "transport": transport,
            "adversary_tree": tree,
            "gossip": network.stats_totals(),
        }
        if proxy is not None:
            extras["attack"] = {
                "totals": proxy.audit_totals(),
                "per_phase": [dict(row) for row in proxy.audit],
            }
        if hub is not None:
            extras["metrics"] = hub.snapshot()
        return EngineResult(
            trace=trace,
            backend=self.name,
            wall_seconds=wall,
            messages_sent=transport.sent_count,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Multi-process path (coordinator over socket-mesh workers)
    # ------------------------------------------------------------------
    async def _execute_multiprocess(self, spec: RunSpec) -> EngineResult:
        """Shard the deployment across spawned workers and merge results."""
        scripted = isinstance(spec.adversary, ScriptedAdversary)
        if spec.adversary is not None and not scripted:
            raise ValueError(
                "multi-process deployments do not support bespoke adversaries: "
                "the adversary's send power needs the omniscient shared tree, "
                "which cannot span processes — script the attack "
                "(repro.attacks) or run with processes=1"
            )
        if scripted and spec.adversary.script.has_equivocation():
            raise ValueError(
                "equivocation needs in-process signing power, which no "
                "worker holds — run equivocating scripts with processes=1"
            )
        if self.protocols is not PROTOCOLS:
            raise ValueError(
                "multi-process deployments resolve protocols by name from "
                "the default registry inside each worker; custom registries "
                "need processes=1"
            )
        conditions = self._conditions(spec)
        shards = shard_pids(spec.n, self.processes)
        n_workers = len(shards)
        owner = {pid: wid for wid, shard in enumerate(shards) for pid in shard}

        tmpdir = tempfile.mkdtemp(prefix="repro-deploy-")
        if supports_unix_sockets():
            addresses: dict[int, object] = {
                wid: os.path.join(tmpdir, f"w{wid}.sock") for wid in range(n_workers)
            }
            control_address: object = os.path.join(tmpdir, "control.sock")
        else:
            addresses = {wid: _free_tcp_address() for wid in range(n_workers)}
            control_address = _free_tcp_address()

        loop = asyncio.get_running_loop()
        ready: set[int] = set()
        dialed: set[int] = set()
        writers: dict[int, asyncio.StreamWriter] = {}
        results: dict[int, dict] = {}
        failures: list[str] = []
        ready_evt, dialed_evt, results_evt = asyncio.Event(), asyncio.Event(), asyncio.Event()
        collector = getattr(self, "_metrics_collector", None)

        def fail(reason: str) -> None:
            failures.append(reason)
            ready_evt.set()
            dialed_evt.set()
            results_evt.set()

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            try:
                while True:
                    frame = await read_frame(reader)
                    tag = frame[0]
                    if tag == "ready":
                        writers[frame[1]] = writer
                        ready.add(frame[1])
                        if len(ready) == n_workers:
                            ready_evt.set()
                    elif tag == "dialed":
                        dialed.add(frame[1])
                        if len(dialed) == n_workers:
                            dialed_evt.set()
                    elif tag == "metrics":
                        if collector is not None:
                            collector.push(f"worker{frame[1]}", frame[2])
                    elif tag == "result":
                        results[frame[1]] = frame[2]
                        if collector is not None:
                            collector.push(f"worker{frame[1]}", frame[2]["metrics"])
                        if len(results) == n_workers:
                            results_evt.set()
            except (asyncio.IncompleteReadError, ConnectionResetError):
                if len(results) < n_workers:
                    fail("a worker's control connection closed before its result")
            except Exception as exc:  # noqa: BLE001 — a dying handler must fail the run
                # A worker killed mid-write leaves a truncated pickle
                # frame: letting the handler task die silently would
                # hang the run until the budget timeout instead of
                # failing it promptly.
                if len(results) < n_workers:
                    fail(f"control channel failure: {exc!r}")

        server = await serve_stream(control_address, handle)
        ctx = multiprocessing.get_context("spawn")
        procs: list = []

        async def watch_processes() -> None:
            while not results_evt.is_set():
                for wid, proc in enumerate(procs):
                    if proc.exitcode not in (None, 0):
                        fail(f"worker {wid} exited with code {proc.exitcode}")
                        return
                await asyncio.sleep(0.2)

        round_s = RoundClock(self.delta_s).round_s
        budget = 60.0 + 2.0 * spec.rounds * round_s + 5.0 * n_workers

        async def wait(event: asyncio.Event, phase: str) -> None:
            try:
                await asyncio.wait_for(event.wait(), timeout=budget)
            except asyncio.TimeoutError:
                raise RuntimeError(f"deployment workers timed out during {phase}") from None
            if failures:
                raise RuntimeError("; ".join(failures))

        async def broadcast(frame: object) -> None:
            blob = encode_frame(frame)
            for wid in sorted(writers):
                writers[wid].write(blob)
                await writers[wid].drain()

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
                await broadcast(("attack_phase", index))

        watcher = loop.create_task(watch_processes())
        phase_driver: asyncio.Task | None = None
        started = loop.time()
        try:
            for wid, shard in enumerate(shards):
                config = WorkerConfig(
                    worker_id=wid,
                    n_workers=n_workers,
                    shard=shard,
                    owner=owner,
                    addresses=addresses,
                    control_address=control_address,
                    spec=spec,
                    delta_s=self.delta_s,
                    gossip_degree=self.gossip_degree,
                    receive_fraction=self.receive_fraction,
                    clock_skew_s=self.clock_skew_s,
                    seen_horizon_rounds=self.gossip_seen_horizon,
                    mempool_capacity=self.mempool_capacity,
                    wire_batching=self.wire_batching,
                )
                proc = ctx.Process(target=worker_main, args=(config,), daemon=True)
                proc.start()
                procs.append(proc)

            await wait(ready_evt, "listener setup")
            await broadcast(("dial",))
            await wait(dialed_evt, "mesh dialing")
            start_wall = time.time() + 0.5
            await broadcast(("start", start_wall))
            if scripted:
                phase_driver = loop.create_task(drive_attack_phases(start_wall))
            await wait(results_evt, "the run")
            await broadcast(("shutdown",))
        finally:
            for task in (watcher, phase_driver):
                if task is None:
                    continue
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            server.close()
            await server.wait_closed()
            for proc in procs:
                await loop.run_in_executor(None, proc.join, 10)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            shutil.rmtree(tmpdir, ignore_errors=True)
        wall = loop.time() - started

        ordered = [results[wid] for wid in range(n_workers)]
        sent_by_round = [[0, 0, 0] for _ in range(spec.rounds)]
        for payload in ordered:
            for r, counters in enumerate(payload["sent_by_round"]):
                for k in range(3):
                    sent_by_round[r][k] += counters[k]
        decisions = [decision for payload in ordered for decision in payload["decisions"]]
        pending = [block for payload in ordered for block in payload["blocks"]]
        if scripted:
            timeline = spec.adversary.timeline
            byz_by_round = {r: timeline.corrupted_at(r) for r in range(spec.rounds + 1)}
        else:
            byz_by_round = {r: frozenset() for r in range(spec.rounds + 1)}
        trace = self._assemble_trace(
            spec, conditions, byz_by_round, sent_by_round, decisions, pending
        )

        def summed(section: str, key: str) -> int:
            return sum(payload[section][key] for payload in ordered)

        extras = {
            "processes": n_workers,
            "shards": shards,
            "transport": {
                key: summed("transport", key)
                for key in (
                    "sent",
                    "frames_sent",
                    "frames_received",
                    "misrouted",
                    "batches_sent",
                    "batches_received",
                    "bytes_sent",
                    "bytes_received",
                    "payload_encodes",
                    "payload_reuses",
                )
            },
            "gossip": {
                key: summed("gossip", key)
                for key in ("delivered", "duplicates", "stale_dropped", "seen_entries")
            },
            "mempool": {key: summed("mempool", key) for key in ("shed", "admitted", "occupancy")},
        }
        if scripted:
            extras["attack"] = {
                "totals": {
                    key: sum((payload.get("attack") or {}).get(key, 0) for payload in ordered)
                    for key in AUDIT_KEYS
                }
            }
        merged = SourcedMetrics()
        for payload in ordered:
            merged.push(f"worker{payload['worker_id']}", payload["metrics"])
        extras["metrics"] = merged.merged()
        return EngineResult(
            trace=trace,
            backend=self.name,
            wall_seconds=wall,
            messages_sent=extras["transport"]["sent"],
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _conditions(spec: RunSpec) -> NetworkConditions:
        if spec.conditions is not None:
            return spec.conditions
        if spec.network is not None:
            return conditions_from_network(spec.network)
        return NetworkConditions.synchronous()

    def _assemble_trace(
        self,
        spec: RunSpec,
        conditions: NetworkConditions,
        byz_by_round: dict[int, frozenset[int]],
        sent_by_round: list[list[int]],
        decisions: Iterable[DecisionEvent],
        pending_blocks: Iterable[Block],
    ) -> Trace:
        # Merge every shard's block views (plus adversary-minted blocks
        # on the single-process path) into one omniscient analysis tree.
        tree = BlockTree([genesis_block()])
        # Merging already-validated local trees: lossless, never evicts.
        buffer = BlockBuffer(tree, max_orphans_per_source=None)
        for block in sorted(pending_blocks, key=lambda b: b.view):
            buffer.offer(block)

        trace = Trace(
            n=spec.n,
            tree=tree,
            meta=base_meta(
                spec,
                self.protocols,
                delta_s=self.delta_s,
                deployment=True,
                backend=self.name,
            ),
        )
        everyone = frozenset(range(spec.n))
        for r in range(spec.rounds):
            scheduled = spec.schedule.awake(r) if spec.schedule is not None else everyone
            byz = byz_by_round[r]
            awake = scheduled | byz  # Byzantine processes never sleep.
            votes, proposes, other = sent_by_round[r]
            trace.rounds.append(
                RoundRecord(
                    round=r,
                    awake=awake,
                    honest=awake - byz,
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
