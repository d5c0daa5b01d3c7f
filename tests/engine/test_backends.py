"""One spec, two substrates: the ExecutionBackend contract.

These tests exercise what the unified engine opened up: transaction
workloads and adversaries on the deployment substrate, asynchronous
periods described once and realised on both, and protocol dispatch
through the registry everywhere.
"""

import dataclasses

import pytest

from repro.analysis.checkers import check_safety
from repro.attacks import AttackScript, apply_script, corrupt, equivocate, get_script, phase
from repro.engine.backend import run_spec
from repro.engine.conditions import NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.errors import ModelViolationError
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.adversary import Adversary
from repro.workloads import surge_scenario, throughput_scenario

FAST_DEPLOY = DeploymentBackend(delta_s=0.02)


def decided_payload_count(trace) -> int:
    deepest = max((d.tip for d in trace.decisions), key=trace.tree.depth, default=None)
    if deepest is None:
        return 0
    return sum(len(trace.tree.get(b).payload) for b in trace.tree.path(deepest))


def test_run_spec_defaults_to_the_simulator():
    result = run_spec(RunSpec(n=4, rounds=8))
    assert result.backend == "simulator"
    assert result.trace.decisions
    assert result.messages_sent > 0
    assert result.wall_seconds >= 0.0


def test_throughput_scenario_runs_on_both_substrates():
    spec = throughput_scenario(n=5, rounds=12, rate_per_round=4, seed=3)
    sim = run_spec(spec, SimulationBackend())
    deploy = run_spec(spec, FAST_DEPLOY)
    for result in (sim, deploy):
        assert check_safety(result.trace).ok
        # The client load actually lands in decided blocks.
        assert decided_payload_count(result.trace) > 0
    assert deploy.backend == "deployment"
    assert deploy.trace.meta["deployment"] is True


def test_surge_scenario_realised_on_both_substrates():
    spec = surge_scenario(n=5, rounds=14, ra=5, pi=2, eta=4, seed=2)
    sim = run_spec(spec, SimulationBackend())
    deploy = run_spec(spec, FAST_DEPLOY)
    for result in (sim, deploy):
        trace = result.trace
        assert check_safety(trace).ok
        assert [r.round for r in trace.rounds if r.asynchronous] == [6, 7]
        # Healing: decisions resume after the period ends.
        assert any(d.round > 7 for d in trace.decisions)


def test_crash_adversary_carves_corrupted_nodes_out_of_deployments():
    spec = apply_script(
        RunSpec(n=5, rounds=12, protocol="resilient", eta=2, seed=1),
        get_script("crash", 5, byz=[4], from_round=0),
    )
    result = run_spec(spec, FAST_DEPLOY)
    trace = result.trace
    assert check_safety(trace).ok
    assert trace.decisions
    for rec in trace.rounds:
        assert rec.byzantine == frozenset({4})
        assert 4 not in rec.honest and 4 in rec.awake
    # The corrupted node never executed the honest protocol.
    assert result.extras["nodes"][4].rounds_participated == []
    assert all(d.pid != 4 for d in trace.decisions)


def test_shrinking_adversary_is_a_model_violation_on_the_deployment():
    """Corruption is for good on every substrate: the deployment's live
    driver enforces the growing-adversary model like the simulator does."""

    class TemporaryCrash(Adversary):
        def byzantine(self, round_number):
            return frozenset({4}) if round_number < 5 else frozenset()

    spec = RunSpec(n=5, rounds=14, protocol="resilient", eta=2, adversary=TemporaryCrash(), seed=6)
    with pytest.raises(ModelViolationError, match="shrank"):
        run_spec(spec, FAST_DEPLOY)


def test_equivocating_adversary_sends_through_the_deployment():
    spec = apply_script(
        RunSpec(n=6, rounds=12, protocol="resilient", eta=2, seed=4),
        AttackScript("equivocation", (phase(12, corrupt(5), equivocate()),)),
    )
    result = run_spec(spec, FAST_DEPLOY)
    trace = result.trace
    assert check_safety(trace).ok
    assert trace.decisions
    # The adversary's equivocating proposals were actually multicast:
    # round records count two proposes from pid 5 on top of the honest ones.
    even_rounds = [r for r in trace.rounds if r.round >= 2 and r.round % 2 == 0]
    assert any(rec.proposes_sent > len(rec.honest) for rec in even_rounds)


def test_spec_describes_asynchrony_once():
    """``conditions`` is the only field about the network, on every backend."""
    assert "network" not in {f.name for f in dataclasses.fields(RunSpec)}
    assert RunSpec(n=2, rounds=2).resolved_conditions() == NetworkConditions.synchronous()
    window = NetworkConditions.window(ra=3, pi=2)
    assert RunSpec(n=2, rounds=2, conditions=window).resolved_conditions() is window
