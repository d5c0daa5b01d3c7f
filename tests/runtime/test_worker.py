"""Multi-process deployment substrate: sharding, equivalence, backpressure."""

import asyncio
import multiprocessing
import time

import pytest

from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.net.socket_transport import supports_unix_sockets
from repro.runtime.clock import RECEIVE_FRACTION
from repro.runtime.shard import shard_pids

pytestmark = pytest.mark.skipif(
    not supports_unix_sockets(), reason="multi-process substrate tests need AF_UNIX"
)


def test_shard_pids_contiguous_and_exhaustive():
    assert shard_pids(5, 2) == ((0, 1, 2), (3, 4))
    assert shard_pids(4, 4) == ((0,), (1,), (2,), (3,))
    assert shard_pids(6, 1) == ((0, 1, 2, 3, 4, 5),)
    with pytest.raises(ValueError):
        shard_pids(2, 3)
    with pytest.raises(ValueError):
        shard_pids(2, 0)


@pytest.mark.parametrize("processes", [2, 3])
def test_multiprocess_decides_the_same_chain_as_single_process(processes):
    """The deploy-smoke equivalence: sharding across processes changes
    where nodes run, not what they decide.  At 3, two spawned workers
    dial each other and the coordinator's own shard."""
    spec = RunSpec(n=4, rounds=6, protocol="resilient", eta=2, seed=0)
    single = DeploymentBackend(delta_s=0.01).execute(spec)
    multi = DeploymentBackend(delta_s=0.01, processes=processes).execute(spec)

    def decision_set(result):
        return sorted((d.pid, d.round, d.view, d.tip) for d in result.trace.decisions)

    def block_ids(result):
        return {block.block_id for block in result.trace.tree.blocks()}

    def rounds(result):
        return [
            (r.awake, r.byzantine, r.votes_sent, r.proposes_sent, r.other_sent)
            for r in result.trace.rounds
        ]

    # A shard whose loop woke late says so: its phase lateness is the first clue.
    clue = multi.extras["histograms"]["phase_lateness_s"]
    assert decision_set(multi) == decision_set(single), clue
    assert sorted(multi.trace.tree.tips()) == sorted(single.trace.tree.tips()), clue
    # The checkers get the same input: every block, and every round's
    # participation and message counts.
    assert block_ids(multi) == block_ids(single), clue
    assert rounds(multi) == rounds(single), clue
    assert multi.extras["processes"] == processes
    assert multi.extras["transport"]["misrouted"] == 0
    # Frames crossed real sockets (the run was actually sharded).
    assert multi.extras["transport"]["frames_sent"] > 0


def test_a_sharded_runs_wall_is_its_rounds_not_its_setup():
    """``wall_seconds`` is the longest shard's span from the shared start
    to the end of its drive, as in process; spawn and handshake are
    ``extras["lifecycle"]["setup_s"]``."""
    rounds, backend = 6, DeploymentBackend(delta_s=0.01, processes=2)
    result = backend.execute(RunSpec(n=4, rounds=rounds, protocol="resilient", eta=2, seed=0))
    round_s = 3 * backend.delta_s
    expected = (rounds - 1 + RECEIVE_FRACTION) * round_s
    assert abs(result.wall_seconds - expected) < round_s
    lifecycle = result.extras["lifecycle"]
    assert result.wall_seconds == max(lifecycle["span_s"])
    assert max(lifecycle["dialed_s"]) < lifecycle["setup_s"]


def test_every_k_quantizes_at_one_slot_width():
    """A shard's fabric is in memory when it hosts every pid and a mesh
    share otherwise; both quantize arrivals at δ/16."""
    from repro.runtime.shard import WorkerConfig
    from repro.runtime.worker import _fabric

    spec = RunSpec(n=4, rounds=2, protocol="resilient", eta=2, seed=0)
    widths = [
        _fabric(
            WorkerConfig(
                worker_id=0,
                shard=shard,
                owner={pid: pid // len(shard) for pid in range(4)},
                addresses={},
                control_address=None,
                spec=spec,
                delta_s=0.02,
            )
        ).slot_s
        for shard in ((0, 1, 2, 3), (0, 1))
    ]
    assert widths == [0.02 / 16] * 2


def test_multiprocess_rejects_adversaries_and_bad_process_counts():
    from repro.sleepy.adversary import NullAdversary

    spec = RunSpec(n=4, rounds=4, adversary=NullAdversary())
    with pytest.raises(ValueError, match="adversar"):
        DeploymentBackend(delta_s=0.01, processes=2).execute(spec)
    with pytest.raises(ValueError, match="processes"):
        DeploymentBackend(delta_s=0.01, processes=0).execute(RunSpec(n=4, rounds=4))


def test_multiprocess_run_with_workload_churn_and_telemetry():
    """A miniature soak: sharded run under churn with client traffic,
    bounded gossip memory, and merged telemetry; every pool is bounded
    at MEMPOOL_CAPACITY, far above what this load queues."""
    from repro.analysis import check_safety
    from repro.workloads import SubmissionRateWorkload, churn_walk

    spec = RunSpec(
        n=6,
        rounds=10,
        protocol="resilient",
        eta=2,
        seed=1,
        schedule=churn_walk(6, 2, 0.1, seed=1),
        transactions=SubmissionRateWorkload(rate_per_round=4, seed=1),
    )
    backend = DeploymentBackend(delta_s=0.01, processes=2)
    result = backend.execute(spec)
    assert check_safety(result.trace).ok
    assert result.trace.decisions
    assert result.extras["mempool"]["admitted"] > 0
    assert result.extras["mempool"]["shed"] == 0
    wire = result.extras["transport"]
    assert wire["misrouted"] == 0
    # The sharded run rode the batched wire path: announcements coalesced
    # into batch writes, and each message was pickled once for its one
    # peer, never again.
    assert 0 < wire["batches_sent"] <= wire["frames_sent"]
    assert wire["batches_received"] > 0
    assert wire["payload_encodes"] > 0 and wire["payload_reuses"] == 0
    assert wire["entries_refused"] == 0
    assert wire["bytes_sent"] > 0
    assert result.extras["counters"]["decisions"] == len(result.trace.decisions)
    assert result.extras["histograms"]["decision_latency_s"]["count"] > 0


def test_k_shards_spawn_k_minus_one_processes():
    """Shard 0 runs on the caller's loop: only workers 1..k−1 are children."""
    spec = RunSpec(n=6, rounds=8, protocol="resilient", eta=2, seed=0)
    backend = DeploymentBackend(delta_s=0.01, processes=3)

    async def scenario():
        run = asyncio.ensure_future(backend.execute_async(spec))
        seen = set()
        while not run.done():
            seen.add(len(multiprocessing.active_children()))
            await asyncio.sleep(0.02)
        return seen, await run

    seen, result = asyncio.run(scenario())
    assert max(seen) == 2
    assert result.extras["processes"] == 3 and result.trace.decisions
    assert multiprocessing.active_children() == []


def test_shard_zero_hands_its_payload_over_and_is_released_before_the_merge(monkeypatch):
    """Shard 0's payload reaches the merge in memory; the shard itself is
    gone by then, by reference counting alone (no collector pass)."""
    import gc
    import weakref

    from repro.engine import deploy_backend
    from repro.runtime.shard import ShardRuntime

    shards, local, alive_at_merge, merged = [], [], [], []
    payload, merge = ShardRuntime.payload, deploy_backend.merge_samples

    def recording_payload(self, *args, **kwargs):
        shards.append(weakref.ref(self))
        local.append(payload(self, *args, **kwargs))
        return local[-1]

    def checking_merge(samples):
        alive_at_merge.extend(ref() is not None for ref in shards)
        merged.extend(samples)
        return merge(samples)

    # Both patches reach shard 0 only: a spawned worker imports its own.
    monkeypatch.setattr(ShardRuntime, "payload", recording_payload)
    monkeypatch.setattr(deploy_backend, "merge_samples", checking_merge)
    spec = RunSpec(n=4, rounds=4, protocol="resilient", eta=2, seed=0)
    gc.disable()
    try:
        DeploymentBackend(delta_s=0.01, processes=2).execute(spec)
    finally:
        gc.enable()
    assert alive_at_merge == [False]
    # Worker order, and shard 0's sample is the very object it took.
    assert len(merged) == 2 and merged[0] is local[0]["sample"]


def test_worker_death_fails_the_run_instead_of_hanging():
    """Kill the spawned worker mid-run: the coordinator must surface a
    RuntimeError (which ``repro soak`` turns into exit code 1), not
    hang on the control channel or report a partial result as success."""
    spec = RunSpec(n=4, rounds=120, protocol="resilient", eta=2, seed=0)
    backend = DeploymentBackend(delta_s=0.05, processes=2)

    async def scenario():
        before = set(multiprocessing.active_children())
        run = asyncio.ensure_future(backend.execute_async(spec))
        for _ in range(200):
            workers = [p for p in multiprocessing.active_children() if p not in before]
            if len(workers) == 1 and workers[0].pid:
                break
            await asyncio.sleep(0.05)
        else:
            run.cancel()
            pytest.fail("worker 1 never spawned")
        workers[0].kill()
        with pytest.raises(RuntimeError, match="worker 1 exited"):
            await run

    asyncio.run(scenario())
    assert multiprocessing.active_children() == []


def test_a_failure_in_the_local_shard_fails_the_run_promptly(monkeypatch):
    """Shard 0 shares the coordinator's loop: its failure is the run's,
    as promptly as a spawned worker's non-zero exit, and reaps the rest."""
    from repro.runtime.shard import ShardRuntime

    async def broken_drive(self, report=None):
        await asyncio.sleep(0.1)
        raise ValueError("drive broke")

    # Spawned workers import their own, unpatched, ShardRuntime.
    monkeypatch.setattr(ShardRuntime, "drive", broken_drive)
    spec = RunSpec(n=6, rounds=120, protocol="resilient", eta=2, seed=0)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^drive broke$"):
        DeploymentBackend(delta_s=0.05, processes=3).execute(spec)
    assert time.monotonic() - started < 5.0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2])
def test_the_collector_merges_what_extras_hold(processes):
    """Live samples and the final payloads go through one merge: after
    the run, ``/metrics``'s provider and the result agree section by section."""
    from repro.runtime.metrics import SourcedMetrics
    from repro.workloads import SubmissionRateWorkload

    if processes > 1 and not supports_unix_sockets():
        pytest.skip("sharded deployment needs AF_UNIX")
    spec = RunSpec(
        n=4,
        rounds=6,
        protocol="resilient",
        eta=2,
        seed=0,
        transactions=SubmissionRateWorkload(rate_per_round=2, seed=0),
    )
    collector = SourcedMetrics()
    backend = DeploymentBackend(delta_s=0.01, processes=processes)
    result = asyncio.run(backend.execute_async(spec, collector=collector))
    merged = collector.merged()
    assert set(merged) == {"counters", "histograms", "transport", "gossip", "mempool", "attack"}
    assert merged == {section: result.extras[section] for section in merged}
    assert merged["counters"]["decisions"] == len(result.trace.decisions)
    assert merged["mempool"]["admitted"] > 0
    assert "metrics" not in result.extras

