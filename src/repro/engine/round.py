"""One round of the sleepy model (paper §2.1): the step both substrates run.

``H_r`` sends at the start of round ``r`` and ``H_{r+1}`` receives at its
end.  :func:`step` holds that order once, and the model's fine print
with it (:class:`~repro.engine.errors.ModelViolationError`).  The one
seam is what a receiver takes, inside its node's receive phase: on the
simulator what the bus holds for it, or in an asynchronous round the
adversary's choice; on a shard what its gossip has brought it by then.
Every publish is recorded into its round as it is made, whether or not
dissemination holds the message already.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.chain.transactions import admit_arrivals
from repro.engine.backend import check_adversary_message, check_honest_message


def step(host, r: int) -> Iterator[None]:
    """Run round ``r`` on ``host``, pausing once at its receive instant:
    the simulator resumes at once, a shard after sleeping to it.

    ``host`` (a simulation or a shard) has ``nodes`` (in pid order, each
    with ``process``, ``run_send_phase(r)`` and ``run_receive_phase(r)``),
    ``schedule``, ``corruption`` (a :class:`~repro.engine.backend.
    CorruptionTracker`), ``adversary`` (``None`` where its ``send`` does
    not run), ``delivery`` (``advance(r, retired)``, ``floor``),
    ``pipeline``, ``record``, ``arrivals(r)`` and ``publish(message)``.
    """
    # Enter r: B_r, the delivery with B_r retired, the verdicts below its
    # floor and the batches of closed rounds.
    corruption, adversary, ctx = host.corruption, host.adversary, host.corruption.ctx
    byz = corruption.corrupted(r)
    ctx.round = r
    delivery = host.delivery
    delivery.advance(r, byz)
    host.pipeline.advance(r, delivery.floor)

    # The round's transactions are admitted once for the awake nodes'
    # pools; in pid order each awake node outside B_r runs its send
    # phase; then the adversary sends.
    awake = host.schedule.awake(r)
    nodes, recorded, publish = host.nodes, host.record.published, host.publish
    arrivals = host.arrivals(r)
    if arrivals:
        pools = [node.process.mempool for pid, node in nodes.items() if pid in awake]
        admit_arrivals(arrivals, awake, pools)
    for pid, node in nodes.items():
        if pid not in awake or pid in byz:
            continue
        for message in node.run_send_phase(r):
            check_honest_message(message, pid, r)
            recorded(r, message)
            publish(message)
    if adversary is not None:
        for message in adversary.send(r, ctx):
            check_adversary_message(message, byz)
            recorded(r, message)
            publish(message)

    yield  # the receive instant

    receivers = host.schedule.awake(r + 1) - corruption.peek(r + 1)
    for pid, node in nodes.items():
        if pid in receivers:
            node.run_receive_phase(r)
