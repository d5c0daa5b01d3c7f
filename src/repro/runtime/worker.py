"""A worker of a multi-process deployment: one shard over sockets.

A worker is a :class:`~repro.runtime.shard.ShardRuntime` — the assembly
the in-process deployment runs too — over a
:class:`~repro.net.socket_transport.SocketTransport` whose remote sends
cross real sockets to the workers owning the other shards.  Worker 0
runs :func:`run_worker` as a task on the coordinator's own event loop;
workers 1..k−1 run it in spawned processes through :func:`worker_main`.
Both speak the same control protocol over a real socket; they differ
only in how the final payload reaches the coordinator.  This module
holds only what the socket substrate adds: the mesh fabric, the
coordinator's handshake, anchoring at the shared start instant (and
reporting how late that was), attack-phase transitions from control
frames, and live metric pushes.  The payload is taken the moment the
drive returns: after a node's last receive phase nothing that arrives
can reach its tree, vote store or decisions, and frames still parked
are written at their slots or by the transport's closing flush.
"""

from __future__ import annotations

import asyncio
import time

from repro.net.socket_transport import SocketTransport
from repro.runtime.coordinator import ControlChannel
from repro.runtime.shard import (
    ShardRuntime,
    WorkerConfig,
    drive_node,
    link_model,
    shard_arrivals,
    shard_pids,
)

#: The shard helpers keep their long-standing import path here.
__all__ = [
    "WorkerConfig",
    "drive_node",
    "run_worker",
    "shard_arrivals",
    "shard_pids",
    "worker_main",
]


def worker_main(config: WorkerConfig) -> None:
    """Spawn target of workers 1..k−1: run one to completion, shipping its payload."""
    asyncio.run(run_worker(config, ship_payload=True))


async def run_worker(config: WorkerConfig, *, ship_payload: bool = False) -> dict:
    """A worker's async body: handshake, drive the shard, report; returns the payload.

    A spawned worker ships its payload in its ``result`` frame
    (``ship_payload``).  Worker 0 shares the coordinator's process, so
    its ``result`` frame is bare and the payload is this coroutine's
    return value, never pickled.  The shard is released as soon as its
    payload is taken; the transport serves until ``shutdown``.
    """
    spec = config.spec
    transport = SocketTransport(
        spec.n,
        local_pids=config.shard,
        owner=config.owner,
        worker_id=config.worker_id,
        addresses=config.addresses,
        slot_s=config.delta_s / 8,
        **link_model(spec, config.delta_s),
    )
    shard = ShardRuntime(config, transport)
    proxy = shard.proxy

    def on_frame(frame: tuple) -> None:
        # The coordinator owns the script's phase schedule and
        # broadcasts each transition at its wall-clock instant.
        if frame[0] == "attack_phase" and proxy is not None:
            proxy.enter_phase(frame[1])

    channel: ControlChannel | None = None
    pump: asyncio.Task | None = None
    try:
        await transport.start()
        channel = await ControlChannel.open(config.control_address, config.worker_id)
        start_wall = await channel.join(transport)
        loop = asyncio.get_running_loop()
        origin = loop.time() + (start_wall - time.time())
        shard.clock.start_at(origin)
        transport.anchor(origin)
        # A start frame read after its instant is reported, not padded
        # against: round 0 still holds while this stays under ~1.9 δ.
        start_lateness_s = max(0.0, loop.time() - origin)
        shard.hub.gauge("start_lateness_ms", start_lateness_s * 1e3)
        pump = loop.create_task(channel.until_shutdown(on_frame))
        await shard.drive(report=lambda snapshot: channel.send("metrics", snapshot))
        lifecycle = {"start_lateness_s": start_lateness_s, "span_s": loop.time() - origin}
        shard.stop()
        payload = shard.payload(lifecycle=lifecycle)
        # The payload is all that is left of the shard: its nodes and
        # trees go now, not at shutdown, so worker 0's memory is free
        # again while the coordinator decodes the spawned payloads.
        del shard
        await channel.send("result", *((payload,) if ship_payload else ()))
        await pump
    finally:
        if pump is not None:
            pump.cancel()
        await transport.close()
        if channel is not None:
            channel.close()
    return payload
