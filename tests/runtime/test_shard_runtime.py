"""The one deployment runtime: a shard's payload, its merge, one result shape."""

import asyncio
import pickle

import pytest

from repro.analysis.verdict import judge
from repro.attacks import apply_script, get_script
from repro.attacks.library import blackout_script
from repro.chain.shared import ChainView
from repro.chain.store import BlockBuffer
from repro.chain.tree import BlockTree
from repro.engine.conditions import NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.registry import PROTOCOLS
from repro.engine.spec import RunSpec
from repro.net.socket_transport import supports_unix_sockets
from repro.runtime.coordinator import Coordinator
from repro.runtime.metrics import SourcedMetrics, merge_samples
from repro.runtime.node import DeployedNode
from repro.runtime.shard import ShardRuntime, shard_pids
from repro.runtime.worker import _fabric, run_worker, worker_main
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.messages import ProposeMessage
from repro.workloads import SubmissionRateWorkload, surge_scenario

from tests.net.conftest import run_virtual, tap_arrivals


def _spec(n=4, rounds=6):
    return RunSpec(
        n=n,
        rounds=rounds,
        protocol="resilient",
        eta=2,
        seed=0,
        transactions=SubmissionRateWorkload(rate_per_round=2, seed=0),
    )


def test_a_single_shards_payload_pickles_and_merges_to_what_the_backend_reports():
    """``processes=1`` is one shard whose payload goes through the same
    merge as k pickled worker payloads."""
    backend = DeploymentBackend(delta_s=0.02)
    spec = _spec()
    reported = backend.execute(spec).trace

    async def one_shard():
        # The backend's own runner and arguments, bar the ``nodes`` it fills.
        coordinator = Coordinator(1, budget_s=30.0)
        config = backend._shard_config(spec, 0, shard_pids(spec.n, 1), {}, None)
        [payload] = await coordinator.run(run_worker, worker_main, [(config,)])
        return payload

    payload = pickle.loads(pickle.dumps(asyncio.run(one_shard())))
    assert payload["shard"] == (0, 1, 2, 3)
    assert set(payload) == {"worker_id", "shard", "record", "span_s", "sample"}
    assert payload["sample"]["attack"] is None
    assert set(merge_samples([payload["sample"]])) == {
        "counters",
        "histograms",
        "transport",
        "gossip",
        "mempool",
        "attack",
    }
    trace = backend._assemble_trace(spec, [payload["record"]])
    assert trace.decisions == reported.decisions
    assert sorted(trace.tree.tips()) == sorted(reported.tree.tips())
    assert [(r.votes_sent, r.proposes_sent, r.other_sent) for r in trace.rounds] == [
        (r.votes_sent, r.proposes_sent, r.other_sent) for r in reported.rounds
    ]


def test_trace_assembly_offers_each_block_a_bounded_number_of_times(monkeypatch):
    """The assembly folds what each shard published, so it offers each
    block of the trace tree exactly once."""
    offers = []
    assembling = []
    offer = BlockBuffer.offer
    assemble = DeploymentBackend._assemble_trace

    def counting_offer(self, block, source=None):
        if assembling:
            offers.append(block.block_id)
        return offer(self, block, source)

    def flagged_assemble(self, *args):
        assembling.append(True)
        try:
            return assemble(self, *args)
        finally:
            assembling.pop()

    monkeypatch.setattr(BlockBuffer, "offer", counting_offer)
    monkeypatch.setattr(DeploymentBackend, "_assemble_trace", flagged_assemble)
    result = DeploymentBackend(delta_s=0.01).execute(_spec(n=6, rounds=12))
    assert result.trace.decisions
    assert offers and len(offers) == len(set(offers))
    # Each block of the trace tree was offered once, and nothing else.
    assert len(offers) == len(result.trace.tree)
    assert all(block_id in result.trace.tree for block_id in offers)


def test_every_block_a_live_adversary_mints_is_in_the_trace_tree(monkeypatch):
    """At ``processes=1`` the adversary reads, and the trace holds, the
    shard recorder's tree: everything any node or the adversary published."""
    minted = []
    send = RandomAdversary.send

    def minting(self, round_number, ctx):
        messages = send(self, round_number, ctx)
        minted.extend(m.block for m in messages if isinstance(m, ProposeMessage))
        return messages

    monkeypatch.setattr(RandomAdversary, "send", minting)
    # Two corrupted pids over 16 rounds: the fuzzer mints in some round.
    adversary = RandomAdversary([4, 5], seed=3)
    spec = RunSpec(n=6, rounds=16, protocol="resilient", eta=2, seed=1, adversary=adversary)
    trace = DeploymentBackend(delta_s=0.01).execute(spec).trace
    assert minted
    assert all(block.block_id in trace.tree for block in minted)


@pytest.mark.skipif(not supports_unix_sockets(), reason="sharded deployment needs AF_UNIX")
def test_extras_have_one_shape_on_both_substrates():
    script = get_script("partition-surge", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6, seed=0)
    spec = apply_script(base, script)
    single = DeploymentBackend(delta_s=0.01).execute(spec)
    multi = DeploymentBackend(delta_s=0.01, processes=2).execute(spec)

    # Only the one shard holding every node adds a key: its nodes.
    assert set(single.extras) - set(multi.extras) == {"nodes"}
    assert set(multi.extras) - set(single.extras) == set()
    assert (single.extras["processes"], multi.extras["processes"]) == (1, 2)
    for result in (single, multi):
        extras = result.extras
        lifecycle = extras["lifecycle"]
        assert set(lifecycle) == {
            "ready_s",
            "dialed_s",
            "margin_s",
            "setup_s",
            "span_s",
        }
        assert len(lifecycle["span_s"]) == extras["processes"]
        assert result.wall_seconds == max(lifecycle["span_s"])
        # Every shard observes both phases of every round.
        lateness = extras["histograms"]["phase_lateness_s"]
        assert lateness["count"] == 2 * spec.rounds * extras["processes"]
        # The hub is always on: no collector was attached to either run.
        assert extras["counters"]["decisions"] == len(result.trace.decisions)
        assert set(extras["transport"]) == set(multi.extras["transport"])
        assert extras["transport"]["sent"] == result.messages_sent
        assert set(extras["mempool"]) == {"shed", "admitted", "occupancy"}
        attack = extras["attack"]
        assert len(attack["per_phase"]) == len(spec.adversary.timeline.states)
        for key, total in attack["totals"].items():
            assert total == sum(row[key] for row in attack["per_phase"])
        assert attack["totals"]["partitioned"] > 0
        assert attack["phase"] == len(spec.adversary.timeline.states) - 1
    # No shard parks a frame: one shard has nobody to tell, and sharded
    # ones announce each entry to their peer once, and every node first
    # holds each message once.
    assert single.extras["transport"]["sent"] == single.extras["transport"]["superseded"] == 0
    assert multi.extras["transport"]["superseded"] == 0
    assert multi.extras["gossip"]["duplicates"] == 0
    # Zeros where the fabric has no wire, counts where it has one.
    assert single.extras["transport"]["frames_sent"] == 0
    assert multi.extras["transport"]["frames_sent"] > 0


def test_one_shard_is_one_process_with_no_socket(monkeypatch):
    """``processes=1``: worker 0 alone, on this loop, over in-memory
    control streams — a scripted run decides and feeds the collector
    live although no listener, dial, temp dir or child can exist."""
    import multiprocessing

    from repro.runtime import coordinator

    def refuse(*_args, **_kwargs):
        raise AssertionError("a one-shard run opened a socket or a temp dir")

    monkeypatch.setattr(coordinator, "serve_stream", refuse)
    monkeypatch.setattr(coordinator, "open_stream", refuse)
    monkeypatch.setattr(coordinator.tempfile, "mkdtemp", refuse)
    script = get_script("partition-surge", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6, seed=0)
    spec = apply_script(base, script)
    pushes = []

    class Recording(SourcedMetrics):
        def push(self, source, snapshot):
            pushes.append(source)
            super().push(source, snapshot)

    backend = DeploymentBackend(delta_s=0.01)
    collector = Recording()

    async def scenario():
        run = asyncio.ensure_future(backend.execute_async(spec, collector=collector))
        children = set()
        while not run.done():
            children.add(len(multiprocessing.active_children()))
            await asyncio.sleep(0.02)
        return children, await run

    children, result = asyncio.run(scenario())
    assert children == {0}
    assert result.trace.decisions and result.extras["processes"] == 1
    assert result.extras["attack"]["totals"]["partitioned"] > 0
    # Live samples during the run, then the final payload's.
    assert len(pushes) > 1 and set(pushes) == {0}
    merged = collector.merged()
    assert merged["counters"]["decisions"] == len(result.trace.decisions)
    assert merged["attack"]["phase"] == len(spec.adversary.timeline.states) - 1


@pytest.mark.skipif(not supports_unix_sockets(), reason="sharded deployment needs AF_UNIX")
def test_two_shards_in_one_attack_phase_report_that_phase():
    """Each shard's proxy is in the script's last phase at the end: the
    merge takes the furthest phase, so two shards do not report the sum."""
    script = get_script("partition-surge", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6, seed=0)
    spec = apply_script(base, script)
    collector = SourcedMetrics()
    backend = DeploymentBackend(delta_s=0.01, processes=2)
    result = asyncio.run(backend.execute_async(spec, collector=collector))
    last = len(spec.adversary.timeline.states) - 1
    assert result.extras["attack"]["phase"] == collector.merged()["attack"]["phase"] == last


@pytest.mark.parametrize(
    "processes",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                not supports_unix_sockets(), reason="sharded deployment needs AF_UNIX"
            ),
        ),
    ],
)
def test_the_proxy_holds_round_rs_phase_at_round_rs_sends(processes, monkeypatch):
    """Whenever a node of the shard runs round ``r``'s send phase, the
    shard's sample reports ``timeline.state_at(r)``, the phase the
    simulator's scripted adversary is in.  At ``processes=2`` the patch
    reaches shard 0, in this process."""
    script = get_script("partition-surge", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 2, protocol="resilient", eta=6, seed=0)
    spec = apply_script(base, script)
    shards, seen = [], []
    init, send_phase = ShardRuntime.__init__, DeployedNode.run_send_phase

    def remembering(self, *args):
        init(self, *args)
        shards.append(self)

    def observed(self, round_number):
        seen.append((round_number, shards[0].sample()["attack"]["phase"]))
        return send_phase(self, round_number)

    monkeypatch.setattr(ShardRuntime, "__init__", remembering)
    monkeypatch.setattr(DeployedNode, "run_send_phase", observed)
    run = asyncio.run if processes > 1 else run_virtual
    run(DeploymentBackend(delta_s=0.01, processes=processes).execute_async(spec))
    timeline = spec.adversary.timeline
    assert {r for r, _ in seen} == set(range(spec.rounds))
    assert [phase for _, phase in seen] == [timeline.state_at(r).index for r, _ in seen]
    assert seen[-1][1] == len(timeline.states) - 1


def test_a_send_phase_draws_its_rounds_surge_factor(monkeypatch):
    """On the virtual clock, the first hop of every message round ``r``'s
    send phases publish is its draw times ``conditions.surge_factor(r)``:
    surged on rounds ra+1..ra+π exactly, and on no other."""
    conditions = NetworkConditions.window(ra=3, pi=2, surge_factor=7.0)
    spec = RunSpec(n=4, rounds=10, protocol="resilient", eta=2, seed=0, conditions=conditions)
    first_hops: dict[int, list[float]] = {}
    init = ShardRuntime.__init__

    def tapping(self, *args):
        init(self, *args)
        published: dict[tuple, float] = {}

        def record(pid, message, at):
            key = message.content_key
            if key not in published:
                published[key] = at
            else:
                first_hops.setdefault(message.round, []).append(at - published[key])

        tap_arrivals(self.network, record)

    monkeypatch.setattr(ShardRuntime, "__init__", tapping)
    run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec))
    base = 0.01 / 8  # the link's base latency; jitter adds at most as much
    assert set(first_hops) == set(range(spec.rounds))
    fastest = {r: min(hops) for r, hops in first_hops.items()}
    assert {r for r, hop in fastest.items() if hop >= 7 * base} == {4, 5}
    assert all(hop <= 2 * base + 0.01 / 16 for r, hop in fastest.items() if r not in (4, 5))


def test_a_shards_nodes_read_one_interned_chain():
    """A shard is assembled as a simulation is: every node of a marked
    factory holds a view of the shard's one chain and reads its GAs
    through one tally, and the recorder records into that chain's tree."""
    backend = DeploymentBackend(delta_s=0.01)
    spec = _spec(n=6, rounds=10)
    nodes = run_virtual(backend.execute_async(spec)).extras["nodes"]
    processes = [node.process for node in nodes.values()]
    assert all(isinstance(process.tree, ChainView) for process in processes)
    assert len({id(process.tree.chain) for process in processes}) == 1
    assert len({id(process._ga.reads) for process in processes}) == 1
    assert all(process.ga_reads for process in processes)

    config = backend._shard_config(spec, 0, shard_pids(spec.n, 1), {}, None)
    shard = ShardRuntime(config, _fabric(config))
    assert shard.record.trace.tree is shard.chain.tree
    assert all(node.process.tree.chain is shard.chain for node in shard.nodes.values())
    shard.stop()


def test_every_deployment_bounds_its_seen_index_at_the_expiry_horizon():
    """With no knob set, a shard forgets a dedup key η + 8 rounds after
    its message round: what is left is at most η + 9 rounds of keys, two
    messages per honest pid each, and no in-theorem frame went stale."""
    n, eta = 6, 2
    spec = RunSpec(n=n, rounds=120, protocol="resilient", eta=eta, seed=0)
    gossip = run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec)).extras["gossip"]
    assert 0 < gossip["seen_entries"] <= (eta + 9) * 2 * n
    assert gossip["stale_dropped"] == 0


def test_a_frame_held_past_the_seen_horizon_is_counted_stale():
    """A blackout of π = 12 > η + 8 rounds holds frames beyond the
    horizon (outside the theorem): they are dropped and counted, and the
    run still completes without an unsafe verdict."""
    script = blackout_script(6, pi=12, ra=5)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=2, seed=0)
    spec = apply_script(base, script)
    result = run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec))
    assert result.extras["gossip"]["stale_dropped"] > 0
    assert len(result.trace.rounds) == spec.rounds
    assert not judge(result.trace).unsafe


def _private_tree_twin(monkeypatch):
    """Have the shard build every node from an unmarked wrapper of its
    factory, so each node owns a private tree (the simulator's rule)."""
    marked_factory = PROTOCOLS.factory

    def factory(*args, **kwargs):
        marked = marked_factory(*args, **kwargs)

        def unmarked(pid, secret_key, verifier):
            return marked(pid, secret_key, verifier)

        return unmarked

    monkeypatch.setattr(PROTOCOLS, "factory", factory)


def _decisions(trace) -> list:
    return sorted((d.pid, d.round, d.view, d.tip or "") for d in trace.decisions)


def _blackout_spec() -> RunSpec:
    script = get_script("blackout", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6, seed=0)
    return apply_script(base, script)


@pytest.mark.parametrize(
    "make_spec",
    [lambda: surge_scenario(n=8, rounds=20, ra=6, pi=2, seed=1), _blackout_spec],
    ids=["surge", "blackout"],
)
def test_a_shared_chain_shard_replays_its_private_tree_twin(make_spec, monkeypatch):
    """The chain is a memory layout, not a semantic change: views over
    one chain decide and read every GA exactly as private trees do."""
    backend = DeploymentBackend(delta_s=0.01)
    shared = run_virtual(backend.execute_async(make_spec()))
    with monkeypatch.context() as patch:
        _private_tree_twin(patch)
        private = run_virtual(backend.execute_async(make_spec()))
    mine, twins = shared.extras["nodes"], private.extras["nodes"]
    assert all(isinstance(node.process.tree, ChainView) for node in mine.values())
    assert all(isinstance(node.process.tree, BlockTree) for node in twins.values())
    assert shared.trace.decisions
    assert _decisions(shared.trace) == _decisions(private.trace)
    for pid, node in mine.items():
        assert node.process.ga_reads == twins[pid].process.ga_reads, pid
