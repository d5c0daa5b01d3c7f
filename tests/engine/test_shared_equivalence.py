"""Shared-chain runs vs per-process-tree runs: byte-identical traces.

The shared chain (:mod:`repro.chain.shared`) is a memory optimisation,
not a semantic change: a full simulation where every receiver holds a
visibility view over one interned tree must reproduce the exact
execution of the same seeded run with a private
:class:`~repro.chain.tree.BlockTree` per process — what ``Simulation``
builds for any factory not marked ``supports_shared_chain``, here an
unmarked wrapper of the same factory.  The scenarios stress the paths
where sharing could plausibly leak state between receivers: sleep/wake
churn (stale views catching up), equivocation (conflicting sibling
blocks), and asynchronous delivery (orphan buffering and eviction in
front of the view).
"""

import pytest

from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import NetworkConditions
from repro.engine.registry import PROTOCOLS
from repro.engine.sim_backend import SimulationBackend
from repro.finality.process import ebb_and_flow_factory
from repro.harness import TOBRunConfig
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.schedule import RandomChurnSchedule, SpikeSchedule
from repro.sleepy.simulator import Simulation

from tests.engine._golden_gen import trace_digest


def _scenario(name: str) -> TOBRunConfig:
    """A fresh config per call — adversaries and schedules are stateful."""
    if name == "churn-equivocation":
        return apply_script(
            TOBRunConfig(
                n=10,
                rounds=22,
                protocol="resilient",
                eta=3,
                schedule=RandomChurnSchedule(10, 0.15, seed=11, min_awake=6),
                seed=11,
            ),
            AttackScript("equivocation", (phase(22, corrupt(9), equivocate()),)),
        )
    if name == "async-split-vote-mmr":
        return apply_script(
            TOBRunConfig(n=10, rounds=24, protocol="mmr", seed=12),
            get_script("split-vote", 10, pi=2),
        )
    if name == "spike-random-adversary":
        return TOBRunConfig(
            n=12,
            rounds=26,
            protocol="resilient",
            eta=2,
            adversary=RandomAdversary([10, 11], seed=13),
            schedule=SpikeSchedule(12, 0.5, start=9, duration=5),
            conditions=NetworkConditions.window(ra=12, pi=3),
            seed=13,
        )
    if name == "ebb-and-flow-churn":
        return TOBRunConfig(
            n=9,
            rounds=20,
            protocol="ebb-and-flow",
            eta=2,
            schedule=RandomChurnSchedule(9, 0.2, seed=14, min_awake=6),
            seed=14,
        )
    raise KeyError(name)


SCENARIOS = (
    "churn-equivocation",
    "async-split-vote-mmr",
    "spike-random-adversary",
    "ebb-and-flow-churn",
)


def _run(name: str, shared: bool) -> Simulation:
    config = _scenario(name)
    if config.protocol == "ebb-and-flow":
        factory = ebb_and_flow_factory("resilient", eta=config.eta, n=config.n)
    else:
        # Telemetry samples each GA read: a shared read must sample what
        # the receiver's own private tally would have.
        factory = PROTOCOLS.factory(
            config.protocol, eta=config.eta, beta=config.beta, record_telemetry=True
        )
    if not shared:
        marked = factory

        def factory(pid, secret_key, pipeline):
            return marked(pid, secret_key, pipeline)

    simulation = Simulation(
        KeyRegistry(config.n, run_seed=config.seed),
        config.resolved_schedule(),
        config.resolved_adversary(),
        config.resolved_conditions(),
        factory,
    )
    SimulationBackend.drive(simulation, config)
    return simulation


@pytest.mark.parametrize("name", SCENARIOS)
def test_shared_run_replays_private_tree_run_bit_for_bit(name):
    shared = _run(name, shared=True)
    private = _run(name, shared=False)
    assert trace_digest(shared.trace) == trace_digest(private.trace)
    # Beyond the digest: every receiver's local tree answers the same,
    # and every GA read it sampled is the one its private tally made.
    def tob(process):
        return process if hasattr(process, "tree") else process.inner

    sampled = 0
    for pid, process in shared.processes.items():
        mine, twin = tob(process), tob(private.processes[pid])
        assert len(mine.tree) == len(twin.tree)
        assert mine.tree.tips() == twin.tree.tips()
        tips = list(mine.tree.tips())
        assert mine.tree.longest(tips) == twin.tree.longest(tips)
        assert mine.telemetry == twin.telemetry
        sampled += len(mine.telemetry)
    assert bool(sampled) == (name != "ebb-and-flow-churn")


def test_shared_run_actually_interns_one_tree():
    """The capability wiring: views over one chain, not private trees —
    and one graded-agreement reads object per run, not one per process."""
    shared = _run("churn-equivocation", shared=True)
    for process in shared.processes.values():
        assert process.tree._tree is shared.chain.tree
    assert len({id(process._ga.reads) for process in shared.processes.values()}) == 1
    private = _run("churn-equivocation", shared=False)
    trees = {id(process.tree) for process in private.processes.values()}
    assert len(trees) == private.registry.n
    reads = {id(process._ga.reads) for process in private.processes.values()}
    assert len(reads) == private.registry.n
