"""Worker process for multi-process deployments.

One worker hosts a *shard* of a deployment's nodes inside its own
process and event loop: it builds the same protocol processes, round
clock, and gossip overlay the single-process
:class:`~repro.engine.deploy_backend.DeploymentBackend` would, but over
a :class:`~repro.net.socket_transport.SocketTransport` whose remote
sends cross real sockets to the workers owning the other shards.

Coordination happens over one control connection per worker (framed
exactly like data, via :func:`~repro.net.socket_transport.encode_frame`):

1. worker → ``("ready", wid)`` once its listener is bound;
2. coordinator → ``("dial",)`` once *every* listener is bound;
3. worker → ``("dialed", wid)`` once its full mesh is connected;
4. coordinator → ``("start", wall_time)``: a wall-clock instant a
   little in the future.  Each worker translates it into its own loop
   time and anchors its round clock and transport there, so round
   boundaries — the model's synchronized clocks — agree across
   processes to wall-clock precision;
5. worker → ``("metrics", wid, snapshot)`` periodically while driving;
6. worker → ``("result", wid, payload)`` when its shard finishes;
7. coordinator → ``("shutdown",)``; the worker tears down and exits.

Everything a worker needs is a pure function of the picklable
:class:`WorkerConfig` (protocol factories are resolved by name from the
default registry; latency streams, overlay topology, and clock-skew
offsets are seeded from the spec), so any two workers — and the
single-process path — agree on all shared randomness without
communicating.

:func:`drive_node` is the one node-driving loop, shared verbatim by the
single-process backend and the workers: the multi-process substrate
changes *where* nodes run, never *how*.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.attacks.adversary import ScriptedAdversary
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import count_kinds, offer_transactions
from repro.engine.conditions import NetworkConditions, conditions_from_network
from repro.engine.ingest import IngestPipeline
from repro.engine.registry import PROTOCOLS
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.socket_transport import SocketTransport, encode_frame, open_stream, read_frame
from repro.protocols.tob_base import first_round_of_view
from repro.runtime.clock import RoundClock
from repro.runtime.metrics import MetricsHub, export_wire_gauges
from repro.runtime.node import DeployedNode
from repro.sleepy.messages import Message


def shard_pids(n: int, processes: int) -> tuple[tuple[int, ...], ...]:
    """Contiguous near-even split of pids ``0..n-1`` into ``processes`` shards."""
    if processes <= 0:
        raise ValueError("need at least one process")
    if processes > n:
        raise ValueError("more processes than nodes")
    base, extra = divmod(n, processes)
    shards = []
    start = 0
    for worker in range(processes):
        size = base + (1 if worker < extra else 0)
        shards.append(tuple(range(start, start + size)))
        start += size
    return tuple(shards)


def resolve_conditions(spec: RunSpec) -> NetworkConditions:
    """The spec's network conditions (same resolution on every substrate)."""
    if spec.conditions is not None:
        return spec.conditions
    if spec.network is not None:
        return conditions_from_network(spec.network)
    return NetworkConditions.synchronous()


def clock_skew_offsets(spec: RunSpec, clock_skew_s: float) -> dict[int, float]:
    """Seeded per-node phase offsets, identical on every substrate."""
    skew_rng = random.Random(spec.seed ^ 0x5CE3)
    return {pid: skew_rng.uniform(-clock_skew_s, clock_skew_s) for pid in range(spec.n)}


#: Rounds of arrivals a shard keeps: skewed nodes are at most a round apart.
_ARRIVAL_ROUNDS_KEPT = 4


def shard_arrivals(
    arrivals: Callable[[int], Sequence[Transaction]],
) -> Callable[[int], Sequence[Transaction]]:
    """``arrivals``, generated once per round for all nodes of a shard.

    A lazy workload builds (and hashes) a round's transactions on every
    call; every node of a shard asks for the same rounds, so the shard
    keeps the last few and its nodes share the ``Transaction`` objects.
    The workload itself stays unmemoised (see
    :class:`~repro.workloads.transactions.SubmissionRateWorkload`).
    """
    return functools.lru_cache(maxsize=_ARRIVAL_ROUNDS_KEPT)(arrivals)


async def drive_node(
    node: DeployedNode,
    *,
    clock: RoundClock,
    rounds: int,
    offset: float,
    receive_fraction: float,
    byz_by_round: Mapping[int, frozenset[int]],
    arrivals: Callable[[int], Sequence[Transaction]],
    publish: Callable[[int, int, Message], None],
    metrics: MetricsHub | None = None,
) -> None:
    """Drive one node through every round (the substrate-shared loop).

    Transactions arrive at every awake node's mempool; the send phase
    belongs to ``H_r`` and the receive phase to ``O_{r+1} \\ B_{r+1}``,
    gated independently exactly like the simulator.  Corrupted nodes
    stop executing the honest protocol (the adversary speaks for them)
    but keep relaying gossip — dissemination is a model assumption, not
    a courtesy.  ``metrics``, when given, observes per-decision latency
    (decision time minus the start of the decided view's first round)
    and round/decision counters; it never alters protocol behaviour.
    """
    for r in range(rounds):
        await clock.sleep_until_elapsed(clock.start_of(r) + offset)
        if node.awake(r):
            offer_transactions(node.process, arrivals(r))
        if node.pid not in byz_by_round[r]:
            decisions_before = len(node.decisions)
            for message in node.run_send_phase(r):
                publish(node.pid, r, message)
            if metrics is not None:
                for decision in node.decisions[decisions_before:]:
                    metrics.inc("decisions")
                    view_start = clock.start_of(first_round_of_view(decision.view))
                    latency = clock.elapsed() - view_start
                    metrics.observe("decision_latency_s", max(latency, 0.0))
        await clock.sleep_until_elapsed(
            clock.start_of(r) + receive_fraction * clock.round_s + offset
        )
        if node.pid not in byz_by_round[r + 1]:
            node.run_receive_phase(r)
    if metrics is not None:
        metrics.inc("nodes_finished")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs, picklable for ``spawn``.

    ``owner`` and ``addresses`` cover the whole deployment so sends to
    any pid route to the right worker; ``shard`` is the slice this
    worker hosts.
    """

    worker_id: int
    n_workers: int
    shard: tuple[int, ...]
    owner: Mapping[int, int]
    addresses: Mapping[int, object]
    control_address: object
    spec: RunSpec
    delta_s: float
    gossip_degree: int = 4
    receive_fraction: float = 0.9
    clock_skew_s: float = 0.0
    seen_horizon_rounds: int | None = None
    mempool_capacity: int | None = None
    metrics_interval_s: float = 0.25
    #: Frame v2 batch writes + slot-coalesced delivery timers (the
    #: default wire path); ``False`` keeps the per-frame legacy path.
    wire_batching: bool = True
    meta: dict = field(default_factory=dict)


def worker_main(config: WorkerConfig) -> None:
    """Process entrypoint: run one worker to completion (spawn target)."""
    asyncio.run(_run_worker(config))


def _sample_gauges(hub, transport, network, nodes) -> None:
    """Refresh the point-in-time gauges (queue depths, occupancy)."""
    hub.gauge("transport_queue_depth", sum(transport.queue_depths().values()))
    export_wire_gauges(hub, transport)
    export_attack = getattr(transport, "export_metrics", None)
    if export_attack is not None:
        export_attack(hub)
    totals = network.stats_totals()
    hub.gauge("gossip_seen_entries", totals["seen_entries"])
    hub.gauge(
        "mempool_occupancy",
        sum(
            len(node.process.mempool)
            for node in nodes.values()
            if node.process.mempool is not None
        ),
    )


async def _run_worker(config: WorkerConfig) -> None:
    """The worker's async body: handshake, drive the shard, report."""
    spec = config.spec
    conditions = resolve_conditions(spec)
    registry = KeyRegistry(spec.n, run_seed=spec.seed)
    verifier = IngestPipeline(registry)
    clock = RoundClock(config.delta_s)
    factory = PROTOCOLS.factory(
        spec.protocol,
        eta=spec.eta,
        beta=spec.beta,
        record_telemetry=spec.record_telemetry,
    )
    topology = regular_topology(spec.n, config.gossip_degree, seed=spec.seed)
    transport = SocketTransport(
        spec.n,
        local_pids=config.shard,
        owner=config.owner,
        worker_id=config.worker_id,
        addresses=config.addresses,
        base_latency_s=config.delta_s / 8,
        jitter_s=config.delta_s / 8,
        seed=spec.seed,
        surges=conditions.surge_windows(clock.round_s),
        batching=config.wire_batching,
        slot_s=config.delta_s / 8,
    )
    # A scripted adversary's delivery effects apply physically, through
    # the proxy layer in front of the socket fabric; its corruption
    # schedule is a pure function of the (picklable) script, so every
    # worker resolves the same ``B_r`` without communicating.  Phase
    # transitions themselves arrive as coordinator control frames.
    proxy: ProxyTransport | None = None
    fabric = transport
    if isinstance(spec.adversary, ScriptedAdversary):
        timeline = spec.adversary.timeline
        proxy = ProxyTransport(
            transport,
            timeline,
            seed=spec.seed,
            round_s=clock.round_s,
            base_latency_s=config.delta_s / 8,
        )
        fabric = proxy
        byz_by_round = {r: timeline.corrupted_at(r) for r in range(spec.rounds + 1)}
    else:
        byz_by_round = {r: frozenset() for r in range(spec.rounds + 1)}

    nodes = {
        pid: DeployedNode(
            factory(pid, registry.secret_key(pid), verifier),
            schedule=spec.schedule,
            mempool_capacity=config.mempool_capacity,
        )
        for pid in config.shard
    }
    hub = MetricsHub()
    network = GossipNetwork(
        fabric,
        {pid: topology[pid] for pid in config.shard},
        on_deliver=lambda pid, message: nodes[pid].on_gossip(message),
        current_round=clock.current_round if config.seen_horizon_rounds is not None else None,
        seen_horizon_rounds=config.seen_horizon_rounds,
    )

    sent_by_round = [[0, 0, 0] for _ in range(spec.rounds)]

    def publish(pid: int, r: int, message: Message) -> None:
        votes, proposes, other = count_kinds((message,))
        counters = sent_by_round[r]
        counters[0] += votes
        counters[1] += proposes
        counters[2] += other
        hub.inc("messages_published")
        network.nodes[pid].publish(message)

    control_reader, control_writer = await open_stream(config.control_address)
    write_lock = asyncio.Lock()

    async def send_control(frame: object) -> None:
        async with write_lock:
            control_writer.write(encode_frame(frame))
            await control_writer.drain()

    async def push_metrics_forever() -> None:
        while True:
            await asyncio.sleep(config.metrics_interval_s)
            _sample_gauges(hub, fabric, network, nodes)
            await send_control(("metrics", config.worker_id, hub.snapshot()))

    control_done = asyncio.Event()

    async def pump_control() -> None:
        # Runs from the moment the run starts: unlike the strictly
        # sequential handshake frames before it, mid-run frames (attack
        # phase transitions, shutdown) arrive while the shard is busy
        # driving nodes, so they need their own reader.
        try:
            while True:
                frame = await read_frame(control_reader)
                if frame[0] == "attack_phase":
                    if proxy is not None:
                        proxy.enter_phase(frame[1])
                elif frame[0] == "shutdown":
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            control_done.set()

    pusher: asyncio.Task | None = None
    pump: asyncio.Task | None = None
    try:
        await transport.start()
        await send_control(("ready", config.worker_id))
        frame = await read_frame(control_reader)
        assert frame[0] == "dial", frame
        await transport.connect()
        await send_control(("dialed", config.worker_id))
        frame = await read_frame(control_reader)
        assert frame[0] == "start", frame
        start_wall = frame[1]
        loop = asyncio.get_running_loop()
        origin = loop.time() + (start_wall - time.time())
        clock.start_at(origin)
        transport.anchor(origin)
        network.start()

        offsets = clock_skew_offsets(spec, config.clock_skew_s)
        arrivals = shard_arrivals(spec.arrivals)
        pump = loop.create_task(pump_control())
        pusher = loop.create_task(push_metrics_forever())
        await asyncio.gather(
            *(
                drive_node(
                    node,
                    clock=clock,
                    rounds=spec.rounds,
                    offset=offsets[node.pid],
                    receive_fraction=config.receive_fraction,
                    byz_by_round=byz_by_round,
                    arrivals=arrivals,
                    publish=publish,
                    metrics=hub,
                )
                for node in nodes.values()
            )
        )
        pusher.cancel()
        try:
            await pusher
        except asyncio.CancelledError:
            pass
        pusher = None
        # Linger one δ so in-flight frames from other shards drain into
        # local queues/trees before the final snapshot is taken.
        await asyncio.sleep(config.delta_s)
        await network.stop()
        _sample_gauges(hub, fabric, network, nodes)
        payload = _result_payload(config, nodes, sent_by_round, transport, network, hub, proxy)
        await send_control(("result", config.worker_id, payload))
        await control_done.wait()
    finally:
        if pusher is not None:
            pusher.cancel()
        if pump is not None:
            pump.cancel()
        if proxy is not None:
            proxy.cancel_timers()
        await transport.close()
        control_writer.close()


def _result_payload(config, nodes, sent_by_round, transport, network, hub, proxy=None) -> dict:
    """This shard's contribution to the merged deployment result."""
    blocks = {}
    for node in nodes.values():
        tree = node.process.tree
        for tip in tree.tips():
            for block_id in tree.path(tip):
                if block_id not in blocks:
                    blocks[block_id] = tree.get(block_id)
    decisions = [decision for node in nodes.values() for decision in node.decisions]
    mempools = [
        node.process.mempool for node in nodes.values() if node.process.mempool is not None
    ]
    return {
        "worker_id": config.worker_id,
        "shard": config.shard,
        "blocks": tuple(blocks.values()),
        "decisions": decisions,
        "sent_by_round": sent_by_round,
        "transport": {
            "sent": transport.sent_count,
            "frames_sent": transport.frames_sent,
            "frames_received": transport.frames_received,
            "misrouted": transport.misrouted_count,
            "batches_sent": transport.batches_sent,
            "batches_received": transport.batches_received,
            "bytes_sent": transport.bytes_sent,
            "bytes_received": transport.bytes_received,
            "payload_encodes": transport.payload_encodes,
            "payload_reuses": transport.payload_reuses,
        },
        "gossip": network.stats_totals(),
        "mempool": {
            "shed": sum(getattr(pool, "shed_count", 0) for pool in mempools),
            "admitted": sum(getattr(pool, "admitted_count", 0) for pool in mempools),
            "occupancy": sum(len(pool) for pool in mempools),
        },
        "attack": proxy.audit_totals() if proxy is not None else None,
        "metrics": hub.snapshot(),
    }
