"""One shard of a deployment: the single assembly every substrate runs.

A deployment is k *shards* of nodes joined by a fabric.  ``processes=1``
is one shard covering ``range(n)`` over a
:class:`~repro.net.transport.SimTransport`; ``processes=k`` is k shards
over a :class:`~repro.net.socket_transport.SocketTransport` mesh, shard
0 in the coordinator's process and shards 1..k−1 one per spawned worker
process.  Either way the shard is a :class:`ShardRuntime`, and its
contribution to the result is one :meth:`ShardRuntime.payload` — shard
0's in memory and k − 1 unpickled ones — whose counts are one
:meth:`ShardRuntime.sample`, the shape its live metric reports take
too, folded by :func:`~repro.runtime.metrics.merge_samples`.  Every
shard runs under the one runner,
:func:`~repro.runtime.worker.run_worker`; the substrates differ only in
the fabric it builds.  A shard is assembled as a simulation is, around
one :class:`~repro.chain.shared.SharedChain`: its nodes read views of
it, and its :class:`~repro.sleepy.trace.TraceRecorder` records into its
tree what the shard's round steps publish, which is the shard's part of
the trace; no node's view is read for it.  And as
a simulation's processes read one message bus, a shard's nodes read
one too (:class:`~repro.runtime.delivery.ShardDelivery`), fed by what
its gossip admits.

Everything a shard needs is a pure function of the picklable
:class:`WorkerConfig` (link draws, overlay topology and the corruption
schedule are seeded from the spec), so any two shards agree on all
shared randomness without communicating.  Every node reads one
clock, the synchronized clocks of the paper's lock-step round, so the
shard runs each round as the simulator does, with the one round step
(:func:`~repro.engine.round.step`; the adversary's ``send`` only when
the shard holds every node), waking at ``clock.start_of(r)`` and again
at ``RECEIVE_FRACTION`` of the round (:meth:`ShardRuntime.drive`).  The
shard's :class:`~repro.runtime.clock.RoundClock` is its only clock: the
flood reads each round's surge factor and attack phase off it for the
instants it computes.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Awaitable, Mapping
from dataclasses import dataclass
from typing import Callable

from repro.attacks.adversary import ScriptedAdversary
from repro.chain.shared import SharedChain
from repro.crypto.signatures import KeyRegistry
from repro.engine.backend import CorruptionTracker
from repro.engine.ingest import IngestPipeline
from repro.engine.registry import PROTOCOLS
from repro.engine.round import step
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, SeenIndex, regular_topology
from repro.net.proxy_transport import ProxyTransport
from repro.net.transport import PushDelivery
from repro.protocols.tob_base import first_round_of_view
from repro.runtime.clock import RECEIVE_FRACTION, RoundClock
from repro.runtime.delivery import ShardDelivery
from repro.runtime.metrics import MetricsHub, transport_counters
from repro.runtime.node import DeployedNode
from repro.sleepy.adversary import AdversaryContext
from repro.sleepy.horizon import seen_horizon
from repro.sleepy.messages import Message
from repro.sleepy.process import build_process
from repro.sleepy.trace import TraceRecorder


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


def link_model(spec: RunSpec, delta_s: float) -> dict:
    """The modelled-latency arguments every fabric of one run shares.

    Draws keyed by the spec's seed, so a sharded run draws exactly the
    latencies the one-shard run would.
    """
    return {
        "base_latency_s": delta_s / 8,
        "jitter_s": delta_s / 8,
        "seed": spec.seed,
    }


#: Overlay degree: each node gossips with this many neighbours.
GOSSIP_DEGREE = 4
#: Seconds between the live samples a driving shard reports.
_REPORT_INTERVAL_S = 0.25


def overlay(spec: RunSpec) -> dict[int, tuple[int, ...]]:
    """The run's gossip overlay, the same in every shard: seeded by the spec."""
    return regular_topology(spec.n, GOSSIP_DEGREE, seed=spec.seed)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one shard needs, picklable for ``spawn``.

    ``owner`` and ``addresses`` cover the whole deployment so sends to
    any pid route to the right worker; ``shard`` is the slice this
    worker hosts.  ``processes=1`` is the one-shard case: ``shard`` is
    ``range(n)`` and there is nothing to address.  The gossip seen
    horizon is no field: every shard derives it from ``spec``'s η.
    """

    worker_id: int
    shard: tuple[int, ...]
    owner: Mapping[int, int]
    addresses: Mapping[int, object]
    control_address: object
    spec: RunSpec
    delta_s: float


class ShardRuntime:
    """The nodes of one shard, assembled over an already-built fabric.

    The caller built ``transport`` and owns its lifecycle
    (start/close); the shard's gossip announces its entries and stops on
    it and listens to it for its peers' — here, so build the shard
    before the fabric starts listening — and, when the spec's adversary
    is scripted, asks a :class:`ProxyTransport`'s ``fate`` of every link.
    :attr:`record` sees every message this shard originates before it
    enters gossip; its tree is :attr:`chain`'s canonical tree, the
    omniscient one the adversary's ``send`` reads when this shard holds
    every node.
    """

    def __init__(self, config: WorkerConfig, transport: PushDelivery) -> None:
        spec = config.spec
        self.config = config
        self.transport = transport
        self.schedule = spec.resolved_schedule()
        self.arrivals = spec.arrivals
        #: The shard's one interned chain (a simulation holds one per run);
        #: nodes of a marked factory read it through views.
        self.chain = SharedChain()
        self.record = TraceRecorder(spec.n, tree=self.chain.tree)
        self.registry = KeyRegistry(spec.n, run_seed=spec.seed)
        # ``Adversary.byzantine`` is a schedule (none of the model's
        # adversaries reads execution state), so every shard resolves
        # ``B_r`` alike; its ``send`` runs only where the shard holds
        # every node.
        adversary = spec.resolved_adversary()
        ctx = AdversaryContext(self.registry, self.chain.tree)
        self.corruption = CorruptionTracker(adversary, ctx)
        self.adversary = adversary if len(config.shard) == spec.n else None
        self.clock = RoundClock(config.delta_s)
        self.hub = MetricsHub()
        # A scripted adversary's delivery effects (partition/surge/drop)
        # are the proxy's ``fate``, asked by the flood for every link;
        # its corruption and send powers flow through
        # :attr:`corruption` and :meth:`publish`.
        self.proxy: ProxyTransport | None = None
        if isinstance(spec.adversary, ScriptedAdversary):
            self.proxy = ProxyTransport(
                spec.adversary.timeline,
                clock=self.clock,
                links=transport.links,
                hosted=transport.hosted,
            )
        #: The shard's one verifier; its verdicts follow the seen index.
        self.pipeline = IngestPipeline(self.registry)
        #: The shard's receive side: one bus over what its gossip admits,
        #: on the seen index's horizon.
        self.delivery = ShardDelivery(
            spec.n,
            config.shard,
            SeenIndex(seen_horizon(PROTOCOLS.effective_eta(spec.protocol, spec.eta))),
        )
        self.network = GossipNetwork(
            transport,
            overlay(spec),
            on_admit=self.delivery.admit,
            seen=self.delivery.seen,
            clock=self.clock,
            surge_factor=spec.resolved_conditions().surge_factor,
            proxy=self.proxy,
        )
        factory = PROTOCOLS.factory(spec.protocol, eta=spec.eta, beta=spec.beta)
        self.nodes = {
            pid: DeployedNode(
                build_process(
                    factory, pid, self.registry.secret_key(pid), self.pipeline, self.chain
                ),
                delivery=self.delivery,
                gossip_stats=self.network.nodes[pid].stats,
            )
            for pid in config.shard
        }

    def publish(self, message: Message) -> None:
        """Originate ``message`` into the shard's gossip at its sender."""
        self.hub.inc("messages_published")
        self.network.nodes[message.sender].publish(message)

    async def drive(self, report: Callable[[dict], Awaitable] | None = None) -> None:
        """Run every round's step (:func:`~repro.engine.round.step`) on
        :attr:`clock`, which the caller starts first.

        At ``clock.start_of(r)`` the flood catches up
        (:meth:`~repro.net.gossip.GossipNetwork.catch_up`) before the
        step's sends; at ``RECEIVE_FRACTION`` of the round it catches up
        again before the step's receive phases.
        Corrupted nodes keep relaying gossip; nothing is kept for them to
        receive.  :attr:`hub` observes how late each phase woke
        (``phase_lateness_s``) and each decision's latency from its
        view's first round; ``report`` is awaited with a fresh
        :meth:`sample` four times a second.
        """
        clock, hub, network = self.clock, self.hub, self.network
        reporter = asyncio.ensure_future(self._report(report)) if report is not None else None
        try:
            for r in range(self.config.spec.rounds):
                hub.observe("phase_lateness_s", await clock.sleep_until_elapsed(clock.start_of(r)))
                network.catch_up()
                made = {pid: len(node.decisions) for pid, node in self.nodes.items()}
                rounds = step(self, r)
                next(rounds)
                for pid, node in self.nodes.items():
                    for decision in node.decisions[made[pid] :]:
                        hub.inc("decisions")
                        view_start = clock.start_of(first_round_of_view(decision.view))
                        hub.observe("decision_latency_s", max(clock.elapsed() - view_start, 0.0))
                receive_at = clock.start_of(r) + RECEIVE_FRACTION * clock.round_s
                hub.observe("phase_lateness_s", await clock.sleep_until_elapsed(receive_at))
                network.catch_up()
                next(rounds, None)
            hub.inc("nodes_finished", len(self.nodes))
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
        """Stop the shard's nodes in every shard's flood."""
        self.network.stop()

    def sample(self) -> dict:
        """Everything this shard counts, in the one shape
        :func:`~repro.runtime.metrics.merge_samples` folds.

        The hub's counters and histograms, then what each owner holds,
        read now: the fabric's counters, the gossip layer's totals, the
        mempools and, under a script, the proxy's per-phase audit of the
        links its nodes send on, and the phase of the round the shard
        has entered.
        """
        pools = [node.process.mempool for node in self.nodes.values()]
        pools = [pool for pool in pools if pool is not None]
        attack = None
        if self.proxy is not None:
            attack = {
                "per_phase": [dict(row) for row in self.proxy.audit],
                "phase": self.proxy.timeline.state_at(self.delivery.seen.now).index,
            }
        return {
            **self.hub.snapshot(),
            "transport": transport_counters(self.transport),
            "gossip": self.network.stats_totals(),
            "mempool": {
                "shed": sum(pool.shed_count for pool in pools),
                "admitted": sum(pool.admitted_count for pool in pools),
                "occupancy": sum(len(pool) for pool in pools),
            },
            "attack": attack,
        }

    def payload(self) -> dict:
        """This shard's picklable contribution, taken once the drive returns.

        ``span_s`` is the drive's length on :attr:`clock`, from the shared
        start instant.  ``record`` is the shard recorder's shipment, its
        nodes' decisions appended: the blocks this shard published (once
        each, in publish order) and its per-round message counts, which
        :meth:`~repro.engine.deploy_backend.DeploymentBackend._assemble_trace`
        folds into the trace; ``sample`` is its final :meth:`sample`.
        """
        span_s = self.clock.elapsed()
        self.record.decided(d for node in self.nodes.values() for d in node.decisions)
        return {
            "worker_id": self.config.worker_id,
            "shard": self.config.shard,
            "record": self.record.shipment(),
            "span_s": span_s,
            "sample": self.sample(),
        }
