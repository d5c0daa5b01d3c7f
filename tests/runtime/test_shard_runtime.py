"""The one deployment runtime: a shard's payload, its merge, one result shape."""

import asyncio
import pickle

import pytest

from repro.attacks import apply_script, get_script
from repro.chain.store import BlockBuffer
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.net.socket_transport import supports_unix_sockets
from repro.runtime.shard import corruption_schedule, merge_payloads
from repro.workloads import SubmissionRateWorkload


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
        shard = backend._in_process_shard(spec)
        shard.transport.start()
        shard.clock.start()
        await shard.drive()
        shard.stop()
        return shard.payload()

    payload = pickle.loads(pickle.dumps(asyncio.run(one_shard())))
    assert payload["shard"] == (0, 1, 2, 3)
    assert payload["attack"] is None
    merged = merge_payloads([payload])
    trace = backend._assemble_trace(
        spec,
        corruption_schedule(spec),
        merged["sent_by_round"],
        merged["decisions"],
        merged["blocks"],
    )
    assert trace.decisions == reported.decisions
    assert sorted(trace.tree.tips()) == sorted(reported.tree.tips())
    assert [(r.votes_sent, r.proposes_sent, r.other_sent) for r in trace.rounds] == [
        (r.votes_sent, r.proposes_sent, r.other_sent) for r in reported.rounds
    ]


def test_trace_assembly_offers_each_block_a_bounded_number_of_times(monkeypatch):
    """The teardown enumerates each tree once: it used to offer every
    tip's full path from each of the n + 1 trees."""
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
    assert 0 < len(offers) <= 2 * len(result.trace.tree)


@pytest.mark.skipif(not supports_unix_sockets(), reason="sharded deployment needs AF_UNIX")
def test_extras_have_one_shape_on_both_substrates():
    script = get_script("partition-surge", 6)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6, seed=0)
    spec = apply_script(base, script)
    single = DeploymentBackend(delta_s=0.01).execute(spec)
    multi = DeploymentBackend(delta_s=0.01, processes=2).execute(spec)

    assert set(single.extras) - set(multi.extras) == {"nodes", "adversary_tree"}
    assert set(multi.extras) - set(single.extras) == {"processes", "shards"}
    for result in (single, multi):
        extras = result.extras
        # The hub is always on: no collector was attached to either run.
        assert extras["metrics"]["counters"]["decisions"] == len(result.trace.decisions)
        assert set(extras["transport"]) == set(multi.extras["transport"])
        assert extras["transport"]["sent"] == result.messages_sent
        assert set(extras["mempool"]) == {"shed", "admitted", "occupancy"}
        attack = extras["attack"]
        assert len(attack["per_phase"]) == len(spec.adversary.timeline.states)
        for key, total in attack["totals"].items():
            assert total == sum(row[key] for row in attack["per_phase"])
        assert attack["totals"]["partitioned"] > 0
    # Zeros where the fabric has no wire, counts where it has one.
    assert single.extras["transport"]["frames_sent"] == 0
    assert multi.extras["transport"]["frames_sent"] > 0
