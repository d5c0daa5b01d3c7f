"""One shard of a deployment: the single assembly every substrate runs.

A deployment is k *shards* of nodes joined by a fabric.  ``processes=1``
is one shard covering ``range(n)`` over a
:class:`~repro.net.transport.SimTransport`; ``processes=k`` is k shards,
one per worker process, over a
:class:`~repro.net.socket_transport.SocketTransport` mesh.  Either way
the shard is a :class:`ShardRuntime`, and its contribution to the result
is one :meth:`ShardRuntime.payload`, folded by :func:`merge_payloads`
whether it is a single in-memory payload or k unpickled ones.  The
substrates differ only in what their callers hand in: which fabric, who
flips attack phases, and (in process) a live adversary task.

Everything a shard needs is a pure function of the picklable
:class:`WorkerConfig` (latency streams, overlay topology, clock-skew
offsets and the corruption schedule are seeded from the spec), so any
two shards agree on all shared randomness without communicating.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import random
from collections.abc import Awaitable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Callable

from repro.attacks.adversary import ScriptedAdversary
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import count_kinds, offer_transactions
from repro.engine.ingest import IngestPipeline
from repro.engine.registry import PROTOCOLS, ProtocolRegistry
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.transport import Transport
from repro.protocols.tob_base import first_round_of_view
from repro.runtime.clock import ROUND_FACTOR, RoundClock
from repro.runtime.metrics import (
    WIRE_COUNTER_ATTRS,
    MetricsHub,
    SourcedMetrics,
    transport_counters,
)
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


def clock_skew_offsets(spec: RunSpec, clock_skew_s: float) -> dict[int, float]:
    """Seeded per-node phase offsets, identical on every substrate."""
    skew_rng = random.Random(spec.seed ^ 0x5CE3)
    return {pid: skew_rng.uniform(-clock_skew_s, clock_skew_s) for pid in range(spec.n)}


def corruption_schedule(spec: RunSpec) -> dict[int, frozenset[int]]:
    """``B_r`` for every round, resolved before the run starts.

    ``Adversary.byzantine`` is a schedule (it may not depend on
    execution state — none of the model's adversaries do), so every
    shard and the coordinator resolve the same sets without
    communicating.
    """
    adversary = spec.resolved_adversary()
    return {r: adversary.byzantine(r) for r in range(spec.rounds + 1)}


def link_model(spec: RunSpec, delta_s: float) -> dict:
    """The modelled-latency arguments every fabric of one run shares.

    Per-link streams seeded from the spec, so a sharded run draws
    exactly the latencies the one-shard run would.
    """
    return {
        "base_latency_s": delta_s / 8,
        "jitter_s": delta_s / 8,
        "seed": spec.seed,
        "surges": spec.resolved_conditions().surge_windows(ROUND_FACTOR * delta_s),
    }


#: Rounds of arrivals a shard keeps: skewed nodes are at most a round apart.
_ARRIVAL_ROUNDS_KEPT = 4
#: Seconds between the live metric snapshots a driving shard reports.
_REPORT_INTERVAL_S = 0.25


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
    metrics: MetricsHub,
) -> None:
    """Drive one node through every round (the substrate-shared loop).

    Transactions arrive at every awake node's mempool; the send phase
    belongs to ``H_r`` and the receive phase to ``O_{r+1} \\ B_{r+1}``,
    gated independently exactly like the simulator.  Corrupted nodes
    stop executing the honest protocol (the adversary speaks for them)
    but keep relaying gossip — dissemination is a model assumption, not
    a courtesy.  ``metrics`` observes per-decision latency (decision
    time minus the start of the decided view's first round) and
    round/decision counters; it never alters protocol behaviour.
    """
    for r in range(rounds):
        await clock.sleep_until_elapsed(clock.start_of(r) + offset)
        if node.awake(r):
            offer_transactions(node.process, arrivals(r))
        if node.pid not in byz_by_round[r]:
            decisions_before = len(node.decisions)
            for message in node.run_send_phase(r):
                publish(node.pid, r, message)
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
    metrics.inc("nodes_finished")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one shard needs, picklable for ``spawn``.

    ``owner`` and ``addresses`` cover the whole deployment so sends to
    any pid route to the right worker; ``shard`` is the slice this
    worker hosts.  The in-process deployment is the one-shard case:
    ``shard`` is ``range(n)`` and there is nothing to address.
    """

    worker_id: int
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


class ShardRuntime:
    """The nodes of one shard, assembled over an already-built fabric.

    The caller built ``transport`` and owns its lifecycle
    (start/anchor/close); the shard only sends through it and subscribes
    its nodes to it — here, so build the shard before the fabric starts
    listening — behind a :class:`ProxyTransport` when the spec's
    adversary is scripted.  ``on_publish`` sees every message this shard originates
    before it enters gossip (the in-process deployment feeds its
    omniscient block tree from it).
    """

    def __init__(
        self,
        config: WorkerConfig,
        transport: Transport,
        *,
        protocols: ProtocolRegistry = PROTOCOLS,
        on_publish: Callable[[Message], None] | None = None,
    ) -> None:
        spec = config.spec
        self.config = config
        self.transport = transport
        self.byz_by_round = corruption_schedule(spec)
        self._on_publish = on_publish
        self.registry = KeyRegistry(spec.n, run_seed=spec.seed)
        self.clock = RoundClock(config.delta_s)
        self.hub = MetricsHub()
        self.sent_by_round = [[0, 0, 0] for _ in range(spec.rounds)]
        # A scripted adversary's delivery effects (partition/surge/drop)
        # are realised physically by the proxy layer in front of the
        # fabric; its corruption and send powers flow through
        # :attr:`byz_by_round` and :meth:`publish`.
        self.proxy: ProxyTransport | None = None
        if isinstance(spec.adversary, ScriptedAdversary):
            self.proxy = ProxyTransport(
                transport,
                spec.adversary.timeline,
                seed=spec.seed,
                round_s=self.clock.round_s,
                base_latency_s=config.delta_s / 8,
            )
        verifier = IngestPipeline(self.registry)
        factory = protocols.factory(
            spec.protocol, eta=spec.eta, beta=spec.beta, record_telemetry=spec.record_telemetry
        )
        # Each node owns a private tree: the deployment models real
        # processes, which cannot intern each other's memory, so the
        # simulator's shared-chain views are deliberately not used here
        # (the factory is called without ``chain=``).
        self.nodes = {
            pid: DeployedNode(
                factory(pid, self.registry.secret_key(pid), verifier),
                schedule=spec.schedule,
                mempool_capacity=config.mempool_capacity,
            )
            for pid in config.shard
        }
        topology = regular_topology(spec.n, config.gossip_degree, seed=spec.seed)
        bounded = config.seen_horizon_rounds is not None
        self.network = GossipNetwork(
            self.proxy if self.proxy is not None else transport,
            {pid: topology[pid] for pid in config.shard},
            on_deliver=lambda pid, message: self.nodes[pid].on_gossip(message),
            current_round=self.clock.current_round if bounded else None,
            seen_horizon_rounds=config.seen_horizon_rounds,
        )

    def publish(self, pid: int, r: int, message: Message) -> None:
        """Originate ``message`` from local ``pid`` in round ``r``."""
        for kind, count in enumerate(count_kinds((message,))):
            self.sent_by_round[r][kind] += count
        self.hub.inc("messages_published")
        if self._on_publish is not None:
            self._on_publish(message)
        self.network.nodes[pid].publish(message)

    async def drive(
        self, *extra_tasks: Awaitable, report: Callable[[dict], Awaitable] | None = None
    ) -> None:
        """Run every node through every round.

        The caller anchors :attr:`clock` (and the fabric) first.
        ``extra_tasks`` run alongside the node drivers; ``report`` is
        awaited with a fresh :meth:`sample` four times a second.
        """
        config = self.config
        offsets = clock_skew_offsets(config.spec, config.clock_skew_s)
        arrivals = shard_arrivals(config.spec.arrivals)
        reporter = asyncio.ensure_future(self._report(report)) if report is not None else None
        try:
            # One driver task per node keeps phase timing independent
            # per node; each node reads the shared clock through its own
            # (skewed) lens.
            await asyncio.gather(
                *(
                    drive_node(
                        node,
                        clock=self.clock,
                        rounds=config.spec.rounds,
                        offset=offsets[node.pid],
                        receive_fraction=config.receive_fraction,
                        byz_by_round=self.byz_by_round,
                        arrivals=arrivals,
                        publish=self.publish,
                        metrics=self.hub,
                    )
                    for node in self.nodes.values()
                ),
                *extra_tasks,
            )
        finally:
            if reporter is not None:
                reporter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await reporter

    async def _report(self, report: Callable[[dict], Awaitable]) -> None:
        while True:
            await asyncio.sleep(_REPORT_INTERVAL_S)
            await report(self.sample())

    def stop(self) -> None:
        """Unsubscribe gossip and cancel any self-scheduled attack-phase timers."""
        if self.proxy is not None:
            self.proxy.cancel_timers()
        self.network.stop()

    def sample(self) -> dict:
        """Refresh the point-in-time gauges and snapshot the hub."""
        hub = self.hub
        hub.gauge("transport_in_flight", self.transport.wheel.pending)
        # Snapshots are pushed *cumulative* and replaced per source, so
        # the fabric's running wire counters are gauges (last write
        # wins); hub-owned counters would double-count on every re-push.
        counters = transport_counters(self.transport)
        hub.gauge("transport_handler_errors", counters["handler_errors"])
        for attr in WIRE_COUNTER_ATTRS:
            hub.gauge(f"wire_{attr}", counters[attr])
        if self.proxy is not None:
            self.proxy.export_metrics(hub)
        hub.gauge("gossip_seen_entries", self.network.stats_totals()["seen_entries"])
        hub.gauge("mempool_occupancy", sum(len(pool) for pool in self._mempools()))
        return hub.snapshot()

    def _mempools(self) -> list:
        pools = (node.process.mempool for node in self.nodes.values())
        return [pool for pool in pools if pool is not None]

    def payload(self, extra_trees: Iterable[BlockTree] = ()) -> dict:
        """This shard's picklable contribution to the deployment result.

        Every tree is enumerated once, parents first, and a block
        several trees hold is kept once — so the merge offers each block
        once per shard, never before its parent.
        """
        nodes = self.nodes.values()
        blocks = {}
        for tree in (*(node.process.tree for node in nodes), *extra_trees):
            for block in tree.blocks():
                blocks.setdefault(block.block_id, block)
        pools = self._mempools()
        return {
            "worker_id": self.config.worker_id,
            "shard": self.config.shard,
            "blocks": tuple(blocks.values()),
            "decisions": [decision for node in nodes for decision in node.decisions],
            "sent_by_round": self.sent_by_round,
            "transport": transport_counters(self.transport),
            "gossip": self.network.stats_totals(),
            "mempool": {
                "shed": sum(pool.shed_count for pool in pools),
                "admitted": sum(pool.admitted_count for pool in pools),
                "occupancy": sum(len(pool) for pool in pools),
            },
            # Per-phase audit rows of the proxy (``None``: no script ran).
            "attack": None if self.proxy is None else [dict(row) for row in self.proxy.audit],
            "metrics": self.sample(),
        }


def _summed(rows: Iterable[Mapping[str, int]]) -> dict[str, int]:
    total: dict[str, int] = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total


def merge_payloads(payloads: Sequence[Mapping]) -> dict:
    """Fold shard payloads (in worker order) into one deployment-wide view.

    ``blocks`` / ``decisions`` / ``sent_by_round`` feed the trace; the
    other keys are the result's ``extras``, one shape for any k.
    """
    metrics = SourcedMetrics()
    for payload in payloads:
        metrics.push(f"worker{payload['worker_id']}", payload["metrics"])
    by_round = zip(*(payload["sent_by_round"] for payload in payloads))
    merged = {
        "blocks": [block for payload in payloads for block in payload["blocks"]],
        "decisions": [decision for payload in payloads for decision in payload["decisions"]],
        "sent_by_round": [[sum(kind) for kind in zip(*rows)] for rows in by_round],
        "transport": _summed(payload["transport"] for payload in payloads),
        "gossip": _summed(payload["gossip"] for payload in payloads),
        "mempool": _summed(payload["mempool"] for payload in payloads),
        "metrics": metrics.merged(),
    }
    if payloads[0]["attack"] is not None:
        per_phase = [_summed(rows) for rows in zip(*(payload["attack"] for payload in payloads))]
        merged["attack"] = {"totals": _summed(per_phase), "per_phase": per_phase}
    return merged
