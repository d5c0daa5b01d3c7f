"""A worker of a deployment: one shard over its fabric.

A worker is a :class:`~repro.runtime.shard.ShardRuntime` over the one
choice that depends on the number of workers, its fabric: a
:class:`~repro.net.transport.SimTransport` when its shard hosts every
pid (one worker, nothing remote), else its share of a
:class:`~repro.net.socket_transport.SocketTransport` mesh whose remote
sends cross real sockets to the workers owning the other shards.

One runner, one round step per shard
(:meth:`~repro.runtime.shard.ShardRuntime.drive`).  For every k,
worker 0 runs :func:`run_worker` as a task on the coordinator's own
event loop, over an in-memory control channel; workers 1..k−1 run it
in spawned processes through :func:`worker_main`, over a control
socket.  Every worker handshakes, starts its round clock at the shared
start instant (a late start is the loop's first ``phase_lateness_s``;
the flood reads each round's surge and attack phase off that clock), pushes live
samples over its channel while the coordinator listens for them, and
takes its payload the moment the drive returns: after a node's last
receive phase nothing that arrives can reach its tree, vote store or
decisions, and announcements not written yet (its nodes' stops among
them) go out by the transport's closing flush.  The payload's trace part is what the
shard recorded at publish (the blocks it published, its per-round
counts, its nodes' decisions), so a block reaches the coordinator
once, from the shard that published it.
"""

from __future__ import annotations

import asyncio

from repro.net.socket_transport import SocketTransport
from repro.net.transport import PushDelivery, SimTransport
from repro.runtime.coordinator import ControlChannel
from repro.runtime.shard import ShardRuntime, WorkerConfig, link_model


def worker_main(config: WorkerConfig) -> None:
    """Spawn target of workers 1..k−1: run one to completion, shipping its payload."""
    asyncio.run(run_worker(config))


def _fabric(config: WorkerConfig) -> PushDelivery:
    """The shard's fabric: in memory if it hosts every pid, else a mesh share."""
    spec = config.spec
    links = link_model(spec, config.delta_s)
    # One slot width for every k, half the modelled jitter width: a
    # computed arrival's quantization (< one slot) hides inside jitter
    # with real-time margin to spare before the 0.9 Δ receive phase even
    # when the host stalls.
    slot_s = config.delta_s / 16
    if len(config.shard) == spec.n:
        return SimTransport(spec.n, slot_s=slot_s, **links)
    return SocketTransport(
        spec.n,
        local_pids=config.shard,
        owner=config.owner,
        worker_id=config.worker_id,
        addresses=config.addresses,
        slot_s=slot_s,
        **links,
    )


async def run_worker(
    config: WorkerConfig,
    nodes: dict | None = None,
    channel: ControlChannel | None = None,
) -> dict:
    """A worker's async body: handshake, drive the shard, report; returns the payload.

    A spawned worker is handed no ``channel``: it dials the
    coordinator's control socket and ships its payload in its
    ``result`` frame.  Worker 0 is handed its in-memory channel, so its
    ``result`` frame is bare and the payload is this coroutine's return
    value, never pickled.  A caller that wants the shard's nodes after
    the run hands an empty ``nodes`` dict, which is filled with them
    (pid → :class:`~repro.runtime.node.DeployedNode`); otherwise the
    shard is released as soon as its payload is taken.  The transport
    serves until ``shutdown``.
    """
    transport = _fabric(config)
    shard = ShardRuntime(config, transport)
    pump: asyncio.Task | None = None
    try:
        await transport.start()
        if channel is None:
            channel = await ControlChannel.open(config.control_address, config.worker_id)
        origin, listening = await channel.join(transport)
        shard.clock.start_at(origin)
        pump = asyncio.create_task(channel.until_shutdown())
        await shard.drive(
            report=(lambda sample: channel.send("metrics", sample)) if listening else None,
        )
        shard.stop()
        payload = shard.payload()
        if nodes is not None:
            nodes.update(shard.nodes)
        # The payload is all that is left of the shard: its nodes and
        # trees go now (unless handed out), not at shutdown, so worker
        # 0's memory is free again while the coordinator decodes the
        # spawned payloads.
        del shard
        await channel.send("result", *(() if channel.in_memory else (payload,)))
        await pump
    finally:
        if pump is not None:
            pump.cancel()
        await transport.close()
        if channel is not None:
            channel.close()
    return payload
