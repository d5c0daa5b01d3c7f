"""Worker process of a multi-process deployment: one shard over sockets.

A worker is a :class:`~repro.runtime.shard.ShardRuntime` — the assembly
the in-process deployment runs too — in its own process and event loop,
over a :class:`~repro.net.socket_transport.SocketTransport` whose remote
sends cross real sockets to the workers owning the other shards.  This
module holds only what the socket substrate adds: the mesh fabric, the
coordinator's handshake, anchoring at the shared start instant,
attack-phase transitions from control frames, live metric pushes, and
the one-δ linger before the final snapshot.
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
__all__ = ["WorkerConfig", "drive_node", "shard_arrivals", "shard_pids", "worker_main"]


def worker_main(config: WorkerConfig) -> None:
    """Process entrypoint: run one worker to completion (spawn target)."""
    asyncio.run(_run_worker(config))


async def _run_worker(config: WorkerConfig) -> None:
    """The worker's async body: handshake, drive the shard, report."""
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

    def on_frame(frame: tuple) -> None:
        # The coordinator owns the script's phase schedule and
        # broadcasts each transition at its wall-clock instant.
        if frame[0] == "attack_phase" and shard.proxy is not None:
            shard.proxy.enter_phase(frame[1])

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
        pump = loop.create_task(channel.until_shutdown(on_frame))
        await shard.drive(report=lambda snapshot: channel.send("metrics", snapshot))
        # Linger one δ so in-flight frames from other shards drain into
        # local inboxes/trees before the final snapshot is taken.
        await asyncio.sleep(config.delta_s)
        shard.stop()
        await channel.send("result", shard.payload())
        await pump
    finally:
        if pump is not None:
            pump.cancel()
        await transport.close()
        if channel is not None:
            channel.close()
