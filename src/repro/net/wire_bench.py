"""Multi-process wire-throughput harness for the socket fabric.

The deployment substrate's hot loop is the send path: every submitted
transaction fans out to ``n − 1`` destinations.  This module measures
that path in isolation — no protocol, no gossip, just
:class:`~repro.net.socket_transport.SocketTransport` meshes moving a
:class:`~repro.workloads.transactions.SubmissionRateWorkload`'s
traffic — on identical, deterministic inputs from run to run.

Each worker process hosts a contiguous shard of pids (the same
:func:`~repro.runtime.shard.shard_pids` split deployments use), drives
the transactions whose origin pid lands in its shard (origin of
transaction ``t`` is ``t mod n``, so traffic is spread evenly and every
process computes the schedule independently), and counts deliveries
until every expected frame has arrived.  Workers are spawned and
sequenced by the deployment's own
:class:`~repro.runtime.coordinator.Coordinator` (``ready → dial → dialed
→ start → result → shutdown``); this module keeps only its measured
loop and reports sustained throughput as ``transactions / max(worker
wall)`` — the slowest worker gates the service, exactly as in a real
deployment.

Lives in the package (not ``benchmarks/``) because worker entrypoints
must be importable from spawned processes, and so the harness can be
unit-tested at small scale.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import asdict, dataclass

from repro.net.socket_transport import SocketTransport
from repro.runtime.coordinator import ControlChannel, Coordinator
from repro.runtime.metrics import WIRE_COUNTER_ATTRS, transport_counters
from repro.runtime.shard import shard_pids
from repro.workloads.transactions import SubmissionRateWorkload


@dataclass(frozen=True)
class WireBenchConfig:
    """One wire-throughput measurement: a mesh and a workload."""

    n: int = 64
    processes: int = 4
    transactions: int = 1024
    rate_per_round: int = 64
    payload_bytes: int = 32
    seed: int = 0
    #: Modelled link latency (δ/8 convention at δ = 4 ms).
    base_latency_s: float = 0.0005
    jitter_s: float = 0.0
    #: Delivery-wheel slot width; ``None`` uses the transport default
    #: (the base latency).  Throughput work can afford wider slots than
    #: a protocol deployment: quantization only defers a delivery by
    #: less than one slot, and with no round structure to honour the
    #: wider slot simply buys bigger batches per write.
    slot_s: float | None = None
    #: Hard per-phase budget; a worker that cannot drain its expected
    #: deliveries inside this window fails the run rather than hanging.
    budget_s: float = 120.0


def _origin(t: int, n: int) -> int:
    """Origin pid of transaction ordinal ``t`` (even round-robin spread)."""
    return t % n


def _own_transactions(config: WireBenchConfig, shard: frozenset[int]) -> int:
    """How many of the workload's transactions originate inside ``shard``."""
    return sum(1 for t in range(config.transactions) if _origin(t, config.n) in shard)


async def _run_bench_worker(
    config: WireBenchConfig,
    worker_id: int,
    addresses: dict[int, object],
    control_address: object,
) -> None:
    shards = shard_pids(config.n, config.processes)
    shard = frozenset(shards[worker_id])
    owner = {pid: wid for wid, pids in enumerate(shards) for pid in pids}
    transport = SocketTransport(
        config.n,
        local_pids=shard,
        owner=owner,
        worker_id=worker_id,
        addresses=addresses,
        base_latency_s=config.base_latency_s,
        jitter_s=config.jitter_s,
        seed=config.seed,
        slot_s=config.slot_s,
    )
    await transport.start()
    channel = await ControlChannel.open(control_address, worker_id, timeout_s=config.budget_s)
    await channel.join(transport)
    transport.anchor()

    # Every transaction reaches each of its n − 1 non-origin pids once;
    # this worker must therefore see one delivery per (tx, local pid)
    # pair minus the local origins themselves.
    own = _own_transactions(config, shard)
    expected = len(shard) * config.transactions - own
    received = 0
    drained = asyncio.Event()
    if expected == 0:
        drained.set()

    async def drain(pid: int) -> None:
        # Burst through whatever already arrived after each wakeup: with
        # slot-coalesced delivery that is a whole batch per task switch.
        nonlocal received
        while True:
            await transport.recv(pid)
            count = 1
            while transport.recv_nowait(pid) is not None:
                count += 1
            received += count
            if received >= expected:
                drained.set()

    drain_tasks = [asyncio.ensure_future(drain(pid)) for pid in sorted(shard)]

    workload = SubmissionRateWorkload(
        config.rate_per_round, seed=config.seed, payload_bytes=config.payload_bytes
    )
    rounds = -(-config.transactions // config.rate_per_round)
    # A collector pause inside the measured window is scheduling noise,
    # not wire cost; the run is collector-free and collects after.
    gc.disable()
    started = time.perf_counter()
    cpu_started = time.process_time()
    t = 0
    try:
        for round_number in range(rounds):
            for tx in workload.get(round_number):
                if t >= config.transactions:
                    break
                origin = _origin(t, config.n)
                t += 1
                if origin not in shard:
                    continue
                transport.send_many(origin, (dst for dst in range(config.n) if dst != origin), tx)
                # Yield after each fan-out so wheel slots fire and socket
                # writers/readers make progress while we keep submitting.
                await asyncio.sleep(0)
        await asyncio.wait_for(drained.wait(), timeout=config.budget_s)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    finally:
        gc.enable()

    result = {
        "worker_id": worker_id,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "submitted": own,
        "received": received,
        "expected": expected,
        **transport_counters(transport),
        "timers_created": transport.wheel.timers_created,
    }
    await channel.send("result", result)
    await channel.until_shutdown()
    for task in drain_tasks:
        task.cancel()
    await transport.close()
    channel.close()


def _bench_worker_main(*args) -> None:
    """Spawn entrypoint: run one bench worker to completion."""
    asyncio.run(_run_bench_worker(*args))


async def _coordinate(config: WireBenchConfig) -> dict:
    coordinator = Coordinator(config.processes, budget_s=config.budget_s)
    ordered = await coordinator.run(
        _bench_worker_main,
        [
            (config, wid, coordinator.addresses, coordinator.control_address)
            for wid in range(config.processes)
        ],
    )
    wall = max(payload["elapsed_s"] for payload in ordered)
    cpu = sum(payload["cpu_s"] for payload in ordered)
    totals = {
        key: sum(payload[key] for payload in ordered)
        for key in ("submitted", "received", "expected", "sent", "misrouted", *WIRE_COUNTER_ATTRS)
    }
    return {
        "config": asdict(config),
        "wall_s": wall,
        "cpu_s": cpu,
        "tx_per_s": config.transactions / wall if wall > 0 else float("inf"),
        "tx_per_cpu_s": config.transactions / cpu if cpu > 0 else float("inf"),
        "totals": totals,
        "workers": ordered,
    }


def run_wire_benchmark(config: WireBenchConfig) -> dict:
    """Run one wire-throughput measurement and return its report.

    The report's ``tx_per_s`` is the sustained submission rate: total
    transactions over the *slowest* worker's wall time, measured from
    the start barrier until that worker drained every expected delivery.
    """
    return asyncio.run(_coordinate(config))
