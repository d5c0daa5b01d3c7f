"""End-to-end ebb-and-flow runs through the simulator."""

from repro.analysis import check_safety, max_reorg_depth
from repro.attacks import ScriptedAdversary, get_script
from repro.crypto.signatures import KeyRegistry
from repro.engine.conditions import NetworkConditions
from repro.finality import ebb_and_flow_factory
from repro.sleepy import FullParticipation, NullAdversary, Simulation, SpikeSchedule


def run_ebb_and_flow(protocol, eta, n=20, rounds=24, schedule=None, script=None):
    registry = KeyRegistry(n, run_seed=0)
    sim = Simulation(
        registry,
        schedule or FullParticipation(n),
        ScriptedAdversary(script) if script else NullAdversary(),
        script.conditions() if script else NetworkConditions.synchronous(),
        ebb_and_flow_factory(protocol, eta=eta, n=n),
    )
    trace = sim.run(rounds)
    return sim, trace


def test_finality_tracks_availability_under_full_participation():
    sim, trace = run_ebb_and_flow("resilient", eta=3)
    process = sim.processes[0]
    avail = trace.tree.depth(process.delivered_tip)
    final = process.inner.tree.depth(process.finalized_tip)
    assert avail >= 10
    assert avail - final <= 1  # finality lags at most one view
    assert check_safety(trace).ok


def test_finality_is_prefix_of_availability():
    sim, _ = run_ebb_and_flow("resilient", eta=3)
    for process in sim.processes.values():
        assert process.inner.tree.is_prefix(process.finalized_tip, process.delivered_tip)


def test_finality_stalls_below_quorum_participation():
    """Availability-finality dilemma: with 40% awake the chain grows but
    nothing new finalises (quorum is over all n)."""
    n = 20
    schedule = SpikeSchedule(n, drop_fraction=0.6, start=8, duration=10)
    sim, trace = run_ebb_and_flow("resilient", eta=3, n=n, rounds=26, schedule=schedule)
    process = sim.processes[0]
    stalled = [e for e in process.finalizations if 10 <= e.round < 18]
    assert not stalled, "finality must stall below the 2/3 quorum"
    grown = [d for d in trace.decisions if 10 <= d.round < 18]
    assert grown, "the available chain must keep growing"
    # After the outage ends, finality catches back up.
    resumed = [e for e in process.finalizations if e.round >= 19]
    assert resumed


def test_attack_reorgs_available_chain_but_never_finality():
    n = 20  # the split vote corrupts 16..19
    sim, trace = run_ebb_and_flow("mmr", eta=0, n=n, script=get_script("split-vote", n))
    assert not check_safety(trace).ok
    assert max_reorg_depth(trace) >= 1  # the user-facing chain rewrote itself
    finalized = [sim.processes[pid].finalized_tip for pid in range(16)]
    for a in finalized:
        for b in finalized:
            assert trace.tree.compatible(a, b)


def test_resilient_inner_eliminates_the_reorg():
    n = 20
    sim, trace = run_ebb_and_flow("resilient", eta=3, n=n, script=get_script("split-vote", n))
    assert check_safety(trace).ok
    assert max_reorg_depth(trace) == 0


def test_factory_rejects_unknown_protocol():
    import pytest

    with pytest.raises(ValueError, match="unknown protocol"):
        ebb_and_flow_factory("hotstuff", eta=0, n=4)
