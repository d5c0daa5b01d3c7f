"""One script, every substrate: simulator, in-process asyncio, sharded.

The acceptance spine of the attack subsystem: the same
:class:`~repro.attacks.script.AttackScript` must run on the round
simulator (via :class:`~repro.attacks.adversary.ScriptedAdversary`), the
single-process deployment, and a sharded deployment (via
:class:`~repro.net.proxy_transport.ProxyTransport`, every shard's proxy
reading each instant's phase off its own clock) — with the resilient
protocol safe in every case and the attack observably biting, phase by
phase (audit counters).
"""

import pytest

from repro.analysis import check_safety
from repro.analysis.batch import GRIDS
from repro.attacks import ATTACKS, AttackScript, apply_script, drop, get_script, heal, phase, surge
from repro.engine.backend import run_spec
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec, stable_digest
from repro.net.socket_transport import supports_unix_sockets
from repro.runtime.shard import overlay

from tests.net.conftest import run_virtual

#: Decision-set digests for the delay-only scripts on the simulator
#: (n=8, η=6, seed=0, 4 tail rounds).  Scripted delay is deterministic —
#: a changed digest means the attack semantics changed, not noise.
GOLDEN_DECISIONS = {
    "partition-heal": "94e8858fc7b706e2",
    "surge-recover": "cc43e1bf9fc0a271",
    "partition-surge": "5a3f091d600fda2f",
}


#: Decision-set digests computed with the strategy *classes* the scripts
#: replaced (the split-vote class with a hand-paired window, the
#: fixed-vote class over its stale-tip chooser, both adversarial-proposer
#: modes, the crash class from round 7) at ``ea359e4``, the last commit
#: that had them — see CHANGES.md, PR 23, for the class → script table.
#: They are the reference the script form must hit; the five class-built
#: scenarios of ``tests/engine/golden_traces.json`` pin the rest.
CLASS_DECISIONS = {
    ("split-vote", "mmr", 0, 2): "1963d65bc016c080",
    ("split-vote", "mmr", 0, 3): "5b42b178e87e4b55",
    ("split-vote", "resilient", 2, 2): "4204ced650cd2c31",
    ("split-vote", "resilient", 2, 3): "f3f7898bce529ecb",
    ("split-vote", "resilient", 4, 2): "4204ced650cd2c31",
    ("split-vote", "resilient", 4, 3): "4204ced650cd2c31",
    ("stale-votes", 1): "c051f4cc74bf37e6",
    ("stale-votes", 9): "69b3bea9f2210634",
    ("stale-proposer",): "f7e33392afcb0034",
    ("conflicting-proposer",): "f5dca438f08457d3",
    ("crash", 7): "675cad7b7ec6ccaf",
}


def _class_built_spec(name: str, *params) -> RunSpec:
    """The spec each ``CLASS_DECISIONS`` key was computed on, as a script."""
    if name == "split-vote":
        protocol, eta, pi = params
        base = RunSpec(n=10, rounds=24, protocol=protocol, eta=eta, seed=0)
        return apply_script(base, get_script(name, 10, pi=pi))
    if name == "stale-votes":  # the two cells of the A1 ablation grid
        return GRIDS["ablation-beta"].build(byz_count=params).cells()[0].spec
    if name == "crash":
        base = RunSpec(n=10, rounds=24, protocol="resilient", eta=2, seed=2)
        return apply_script(base, get_script(name, 10, byz=[8, 9], from_round=params[0]))
    base = RunSpec(n=12, rounds=40, protocol="resilient", eta=3, seed=0)
    return apply_script(base, get_script(name, 12, byz=[9, 10, 11], rounds=40))


def _scripted_spec(name: str, n: int, protocol: str = "resilient", eta: int = 6) -> RunSpec:
    script = get_script(name, n)
    base = RunSpec(n=n, rounds=script.total_rounds + 4, protocol=protocol, eta=eta, seed=0)
    return apply_script(base, script)


def _decision_digest(trace) -> str:
    return stable_digest(sorted((d.pid, d.round, d.view, d.tip) for d in trace.decisions))[:16]


# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_resilient_protocol_survives_every_library_script(name):
    result = run_spec(_scripted_spec(name, 10))
    assert check_safety(result.trace).ok
    assert result.trace.decisions


def test_mmr_splits_under_partition_surge():
    """The paper's headline, scripted: MMR without expiration forks."""
    result = run_spec(_scripted_spec("partition-surge", 10, protocol="mmr", eta=0))
    assert not check_safety(result.trace).ok


@pytest.mark.parametrize("key", sorted(CLASS_DECISIONS, key=str), ids=str)
def test_scripts_reproduce_the_strategy_classes_they_replaced(key):
    result = run_spec(_class_built_spec(*key))
    assert _decision_digest(result.trace) == CLASS_DECISIONS[key]


def test_split_vote_is_the_papers_boundary():
    """Theorem 2, scripted: safe while π < η, and MMR forks in one round."""
    assert not check_safety(run_spec(_scripted_spec("split-vote", 10, "mmr", 0)).trace).ok
    for eta, pi, safe in ((2, 1, True), (4, 3, True), (2, 4, False)):
        base = RunSpec(n=20, rounds=28, protocol="resilient", eta=eta)
        spec = apply_script(base, get_script("split-vote", 20, pi=pi, target_round=12))
        assert [(p.ra, p.pi) for p in spec.conditions.periods] == [(12 - pi, pi)]
        assert check_safety(run_spec(spec).trace).ok is safe


@pytest.mark.parametrize("name", sorted(GOLDEN_DECISIONS))
def test_delay_only_scripts_are_bit_identical_on_the_simulator(name):
    assert not get_script(name, 8).requires()
    first = run_spec(_scripted_spec(name, 8))
    second = run_spec(_scripted_spec(name, 8))
    assert _decision_digest(first.trace) == _decision_digest(second.trace)
    assert _decision_digest(first.trace) == GOLDEN_DECISIONS[name]


# ----------------------------------------------------------------------
# Deployment substrates
# ----------------------------------------------------------------------
def _assert_interference_stays_in_its_phases(result):
    totals = result.extras["attack"]["totals"]
    assert totals["partitioned"] > 0 and totals["delayed"] > 0
    # Per-phase audit rows: interference lands only in its own phases.
    per_phase = result.extras["attack"]["per_phase"]
    assert per_phase[0] == {"partitioned": 0, "delayed": 0, "dropped": 0}
    assert per_phase[1]["partitioned"] > 0 and per_phase[1]["delayed"] == 0
    assert per_phase[3]["delayed"] > 0 and per_phase[3]["partitioned"] == 0


@pytest.mark.parametrize("processes", [2, 3])
def test_acceptance_script_runs_on_all_three_substrates(processes):
    spec = _scripted_spec("partition-surge", 6)

    sim = run_spec(spec)
    assert check_safety(sim.trace).ok and sim.trace.decisions

    single = DeploymentBackend(delta_s=0.01).execute(spec)
    assert check_safety(single.trace).ok and single.trace.decisions
    _assert_interference_stays_in_its_phases(single)

    if not supports_unix_sockets():
        pytest.skip("sharded deployment needs AF_UNIX")
    # Every shard's proxy reads each instant's phase off a clock started
    # at the shared origin.
    multi = DeploymentBackend(delta_s=0.01, processes=processes).execute(spec)
    assert check_safety(multi.trace).ok and multi.trace.decisions
    _assert_interference_stays_in_its_phases(multi)


def test_blackout_holds_every_frame_and_heals_on_every_substrate():
    """Theorem 3 on the real fabric: ``withhold`` is frames held, then flushed.

    The in-process leg runs on a virtual clock, so a host stall cannot
    add asynchrony the script did not ask for; the sharded leg crosses
    real sockets in real time."""
    script = get_script("blackout", 6)
    spec = _scripted_spec("blackout", 6)
    healed = script.conditions().periods[0].ra + script.conditions().periods[0].pi
    results = [run_spec(spec), run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec))]
    if supports_unix_sockets():
        results.append(run_spec(spec, DeploymentBackend(delta_s=0.01, processes=2)))
    for result in results:
        assert check_safety(result.trace).ok
        assert any(d.round > healed for d in result.trace.decisions)
        if result.backend == "deployment":
            assert result.extras["attack"]["totals"]["partitioned"] > 0


def test_scripted_crash_faults_reach_the_deployment_trace():
    spec = _scripted_spec("equivocation-storm", 10)
    result = DeploymentBackend(delta_s=0.01).execute(spec)
    assert check_safety(result.trace).ok
    # The corrupted pids are recorded byzantine from the first phase on.
    assert set(result.trace.rounds[5].byzantine) == {8, 9}


def test_equivocation_scripts_are_rejected_on_sharded_deployments():
    """Refused by op name before anything is spawned: no worker holds the keys."""
    sharded = DeploymentBackend(delta_s=0.01, processes=2)
    for name, op in (
        ("equivocation-storm", "equivocate"),
        ("stale-votes", "vote_for"),
        ("stale-proposer", "propose"),
    ):
        with pytest.raises(ValueError, match=f"{op} needs signing"):
            sharded.execute(_scripted_spec(name, 10))


@pytest.mark.parametrize("processes", [1, 2])
def test_split_vote_is_rejected_on_every_deployment(processes):
    """A physical fabric grants no per-receiver choice (yet: ROADMAP item 6)."""
    backend = DeploymentBackend(delta_s=0.01, processes=processes)
    with pytest.raises(ValueError, match="split_vote needs per-receiver-delivery"):
        backend.execute(_scripted_spec("split-vote", 10))


def _per_link_spec(*ops) -> RunSpec:
    script = AttackScript(name="per-link", phases=(phase(2), phase(4, *ops), phase(4, heal())))
    return apply_script(RunSpec(n=6, rounds=script.total_rounds, eta=6, seed=0), script)


@pytest.mark.parametrize("op", [surge(links=[(0, 4)]), drop(0, 4, 1.0)], ids=["surge", "drop"])
def test_a_per_link_op_off_the_overlay_is_refused(op):
    """At n = 6, seed 0 the gossip overlay has no 0–4 hop, so no frame
    crosses 0 → 4: a deployment refuses a per-link op naming it before
    anything runs, where it would otherwise realise nothing."""
    spec = _per_link_spec(op)
    assert 4 not in overlay(spec)[0]
    with pytest.raises(ValueError, match=r"names the link \(0, 4\), which is no hop"):
        DeploymentBackend(delta_s=0.01).execute(spec)


def test_a_per_link_op_on_an_overlay_hop_bites():
    """An overlay hop is accepted and surged; a wildcard end is never refused."""
    spec = _per_link_spec(surge(links=[(0, 1)]), drop(None, 4, 0.5))
    assert 1 in overlay(spec)[0]
    result = run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec))
    totals = result.extras["attack"]["totals"]
    assert totals["delayed"] > 0 and totals["dropped"] > 0


def test_a_live_adversary_needs_the_in_process_shard():
    from repro.sleepy.adversary import RandomAdversary

    spec = RunSpec(n=6, rounds=8, eta=2, adversary=RandomAdversary([5], seed=1))
    with pytest.raises(ValueError, match="RandomAdversary needs processes=1"):
        DeploymentBackend(delta_s=0.01, processes=2).execute(spec)
