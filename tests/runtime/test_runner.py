"""End-to-end deployments on the asyncio substrate."""

import pytest

from repro.analysis.checkers import check_safety
from repro.analysis.metrics import decision_rounds
from repro.engine.backend import run_spec
from repro.engine.conditions import NetworkConditions
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.sleepy.schedule import TableSchedule


def test_deployment_reaches_steady_state_decisions():
    result = DeploymentBackend(delta_s=0.02).execute(
        RunSpec(n=5, rounds=12, protocol="resilient", eta=2, seed=1)
    )
    trace = result.trace
    assert check_safety(trace).ok
    rounds = decision_rounds(trace)
    assert rounds and rounds[0] == 3
    # Steady state: a decision every view (2 rounds).
    assert all(b - a == 2 for a, b in zip(rounds, rounds[1:]))
    # One shard computes its nodes' arrivals: messages flowed, no frame did.
    assert result.extras["gossip"]["delivered"] > 0
    assert result.messages_sent == 0
    assert result.wall_seconds < 5.0


def test_deployment_mmr_matches_round_simulator_decisions():
    """Same protocol, same seeds: the deployment's decided logs must
    agree (prefix-wise) with the round simulator's."""
    spec = RunSpec(n=5, rounds=10, protocol="mmr", seed=0)
    deployed = DeploymentBackend(delta_s=0.02).execute(spec).trace
    simulated = run_spec(spec).trace
    # Block ids differ only if content differs; with empty payloads and
    # the same keys, the decided chains must be identical.
    deep_d = max((d.tip for d in deployed.decisions), key=deployed.tree.depth)
    deep_s = max((d.tip for d in simulated.decisions), key=simulated.tree.depth)
    path_d = [deployed.tree.get(b).view for b in deployed.tree.path(deep_d)]
    path_s = [simulated.tree.get(b).view for b in simulated.tree.path(deep_s)]
    common = min(len(path_d), len(path_s))
    assert common >= 3
    assert path_d[:common] == path_s[:common]
    assert deployed.tree.path(deep_d)[:common] == simulated.tree.path(deep_s)[:common]


def test_deployment_with_sleep_schedule():
    schedule = TableSchedule(5, {r: {0, 1, 2} for r in range(4, 8)}, default=set(range(5)))
    result = DeploymentBackend(delta_s=0.02).execute(
        RunSpec(n=5, rounds=14, protocol="resilient", eta=3, schedule=schedule, seed=2)
    )
    assert check_safety(result.trace).ok
    # Rounds 5 and 9 each read the GA started the round before.
    ga_rounds = [ga_round for ga_round, _ in result.extras["nodes"][4].process.ga_reads]
    assert 4 not in ga_rounds  # asleep at round 5
    assert 8 in ga_rounds  # awake at round 9


@pytest.mark.slow
def test_deployment_latency_surge_preserves_safety_with_eta():
    """A latency surge (real asynchrony) during two rounds: the resilient
    protocol must come out safe and decide again afterwards."""
    result = DeploymentBackend(delta_s=0.02).execute(
        RunSpec(
            n=5,
            rounds=16,
            protocol="resilient",
            eta=4,
            conditions=NetworkConditions.window(7, 2, surge_factor=25.0),
            seed=3,
        )
    )
    trace = result.trace
    assert check_safety(trace).ok
    assert any(d.round > 11 for d in trace.decisions)


def test_deployment_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol"):
        DeploymentBackend().execute(RunSpec(n=3, rounds=2, protocol="tendermint"))
